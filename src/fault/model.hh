/**
 * @file
 * Fault models, after CAROL-FI (Oliveira et al., CF'17).
 *
 * CAROL-FI corrupts a live program variable at a random execution
 * instant using one of four models; the paper's PVF experiments use
 * the single-bit-flip model (Section 5.2).
 */

#ifndef MPARCH_FAULT_MODEL_HH
#define MPARCH_FAULT_MODEL_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/bits.hh"
#include "common/rng.hh"

namespace mparch::fault {

/** How a fault perturbs a word. */
enum class FaultModel
{
    SingleBitFlip,  ///< flip one uniformly random bit
    DoubleBitFlip,  ///< flip two adjacent bits (MBU model)
    RandomByte,     ///< replace one byte with random bits
    RandomValue,    ///< replace the whole word with random bits
    WordBurst,      ///< one bit flipped in 4 adjacent words (MBU row)
};

/** Name of a FaultModel ("single-bit-flip", ...). */
constexpr const char *
faultModelName(FaultModel model)
{
    switch (model) {
      case FaultModel::SingleBitFlip: return "single-bit-flip";
      case FaultModel::DoubleBitFlip: return "double-bit-flip";
      case FaultModel::RandomByte:    return "random-byte";
      case FaultModel::RandomValue:   return "random-value";
      case FaultModel::WordBurst:     return "word-burst";
    }
    return "?";
}

/** Inverse of faultModelName(); nullopt for an unknown name. */
constexpr std::optional<FaultModel>
parseFaultModel(std::string_view name)
{
    for (FaultModel m :
         {FaultModel::SingleBitFlip, FaultModel::DoubleBitFlip,
          FaultModel::RandomByte, FaultModel::RandomValue,
          FaultModel::WordBurst})
        if (faultModelName(m) == name)
            return m;
    return std::nullopt;
}

/**
 * Apply a fault model to the low @p width bits of @p value.
 *
 * @param model Corruption pattern.
 * @param rng   Randomness source (position/payload draws).
 * @param width Number of meaningful bits in @p value (1..64).
 * @param value The fault-free word.
 * @return The corrupted word, still confined to @p width bits.
 */
inline std::uint64_t
applyFault(FaultModel model, Rng &rng, unsigned width,
           std::uint64_t value)
{
    MPARCH_ASSERT(width >= 1 && width <= 64, "bad fault width");
    switch (model) {
      case FaultModel::SingleBitFlip:
        return flipBit(value, static_cast<unsigned>(rng.below(width)));
      case FaultModel::DoubleBitFlip: {
        const auto pos = static_cast<unsigned>(
            rng.below(width > 1 ? width - 1 : 1));
        value = flipBit(value, pos);
        if (pos + 1 < width)
            value = flipBit(value, pos + 1);
        return value;
      }
      case FaultModel::RandomByte: {
        const unsigned bytes = (width + 7) / 8;
        const auto byte = static_cast<unsigned>(rng.below(bytes));
        const std::uint64_t payload = rng.below(256) << (8 * byte);
        const std::uint64_t mask = 0xffULL << (8 * byte);
        return ((value & ~mask) | payload) & maskBits(width);
      }
      case FaultModel::RandomValue:
        return rng.next() & maskBits(width);
      case FaultModel::WordBurst:
        // Per-word effect of a row burst: a single flip; the memory
        // campaign applies it to the adjacent words too.
        return flipBit(value,
                       static_cast<unsigned>(rng.below(width)));
    }
    return value;
}

} // namespace mparch::fault

#endif // MPARCH_FAULT_MODEL_HH
