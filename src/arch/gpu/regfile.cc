#include "arch/gpu/regfile.hh"

#include "arch/gpu/params.hh"
#include "common/rng.hh"

namespace mparch::gpu {

using fp::Precision;
using workloads::MicroOp;

namespace {

/** One dependent-chain lane state. */
template <Precision P>
struct Lane
{
    fp::Fp<P> x;
    fp::Fp<P> k1, k2;

    void
    init(double x0, MicroOp op)
    {
        x = fp::Fp<P>::fromDouble(x0);
        switch (op) {
          case MicroOp::Add:
            k1 = fp::Fp<P>::fromDouble(workloads::kMicroAddK);
            break;
          case MicroOp::Mul:
            k1 = fp::Fp<P>::fromDouble(workloads::kMicroMulK);
            break;
          case MicroOp::Fma:
            k1 = fp::Fp<P>::fromDouble(workloads::kMicroFmaM);
            k2 = fp::Fp<P>::fromDouble(workloads::kMicroFmaA);
            break;
        }
    }

    void
    step(MicroOp op)
    {
        switch (op) {
          case MicroOp::Add: x = x + k1; break;
          case MicroOp::Mul: x = x * k1; break;
          case MicroOp::Fma: x = fma(x, k1, k2); break;
        }
    }
};

/**
 * Run a chain with an optional flip of (target value, bit) after
 * @p flip_at operations; returns the final bits.
 */
template <Precision P>
std::uint64_t
runLane(MicroOp op, double x0, std::size_t chain_len,
        std::size_t flip_at, int flip_target, unsigned flip_bit)
{
    Lane<P> lane;
    lane.init(x0, op);
    for (std::size_t i = 0; i < chain_len; ++i) {
        if (i == flip_at) {
            switch (flip_target) {
              case 0:
                lane.x.setBits(flipBit(lane.x.bits(), flip_bit));
                break;
              case 1:
                lane.k1.setBits(flipBit(lane.k1.bits(), flip_bit));
                break;
              case 2:
                lane.k2.setBits(flipBit(lane.k2.bits(), flip_bit));
                break;
              default:
                break;  // no flip
            }
        }
        lane.step(op);
    }
    return lane.x.bits();
}

/**
 * The thread's 32-bit register allocation map: which (value, bit)
 * a flat register-bit index corresponds to, or "dead".
 *
 * Layout (bit offsets inside kThreadRegs x 32 bits):
 *   double:  x -> [0,64),  k1 -> [64,128), k2(fma) -> [128,192)
 *   single:  x -> [0,32),  k1 -> [32,64),  k2(fma) -> [64,96)
 *   half2:   lane A x/k1/k2 packed with lane B's in the same
 *            registers: xA [0,16) xB [16,32) k1A [32,48) ...
 */
struct RegHit
{
    int lane = 0;        ///< 0 = lane A, 1 = lane B (half2 only)
    int target = -1;     ///< 0 = x, 1 = k1, 2 = k2, -1 = dead
    unsigned bit = 0;    ///< bit within the value
};

RegHit
mapRegisterBit(Precision p, MicroOp op, unsigned flat_bit)
{
    const unsigned value_bits = fp::formatOf(p).totalBits;
    const int live_values = op == MicroOp::Fma ? 3 : 2;
    RegHit hit;
    if (fp::formatOf(p).totalBits == 16) {
        // Packed: value v occupies [v*32, v*32+32), lane A low half.
        const unsigned slot = flat_bit / 32;
        const unsigned within = flat_bit % 32;
        if (slot >= static_cast<unsigned>(live_values))
            return hit;
        hit.target = static_cast<int>(slot);
        hit.lane = within >= 16 ? 1 : 0;
        hit.bit = within % 16;
        return hit;
    }
    const unsigned slot = flat_bit / value_bits;
    if (slot >= static_cast<unsigned>(live_values))
        return hit;
    hit.target = static_cast<int>(slot);
    hit.bit = flat_bit % value_bits;
    return hit;
}

template <Precision P>
RegFileAvf
campaign(MicroOp op, std::uint64_t trials, std::uint64_t seed,
         std::size_t chain_len)
{
    Rng rng(seed);
    RegFileAvf result;
    const unsigned alloc_bits = kThreadRegs * 32;
    const double x0a = 1.371;
    const double x0b = 1.629;

    const std::uint64_t golden_a = runLane<P>(
        op, x0a, chain_len, chain_len, -1, 0);
    const std::uint64_t golden_b =
        fp::formatOf(P).totalBits == 16
            ? runLane<P>(op, x0b, chain_len, chain_len, -1, 0)
            : 0;

    for (std::uint64_t t = 0; t < trials; ++t) {
        ++result.trials;
        const auto flat_bit =
            static_cast<unsigned>(rng.below(alloc_bits));
        const auto flip_at =
            static_cast<std::size_t>(rng.below(chain_len));
        const RegHit hit = mapRegisterBit(P, op, flat_bit);
        if (hit.target < 0)
            continue;  // dead register: architecturally masked
        const double x0 = hit.lane == 0 ? x0a : x0b;
        const std::uint64_t golden =
            hit.lane == 0 ? golden_a : golden_b;
        const std::uint64_t corrupted = runLane<P>(
            op, x0, chain_len, flip_at, hit.target, hit.bit);
        if (corrupted != golden)
            ++result.sdc;
    }
    return result;
}

} // namespace

RegFileAvf
measureRegFileAvf(MicroOp op, Precision p, std::uint64_t trials,
                  std::uint64_t seed, std::size_t chain_len)
{
    switch (p) {
      case Precision::Double:
        return campaign<Precision::Double>(op, trials, seed,
                                           chain_len);
      case Precision::Single:
        return campaign<Precision::Single>(op, trials, seed,
                                           chain_len);
      case Precision::Half:
        return campaign<Precision::Half>(op, trials, seed, chain_len);
      case Precision::Bfloat16:
        return campaign<Precision::Bfloat16>(op, trials, seed,
                                             chain_len);
    }
    return {};
}

} // namespace mparch::gpu
