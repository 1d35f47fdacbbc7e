/**
 * @file
 * Synthetic handwritten-digit dataset.
 *
 * Substitution note (DESIGN.md): the paper classifies 28x28 MNIST
 * images; no MNIST files are available offline, so we generate a
 * deterministic 12x12 ten-class glyph task — digit-like prototype
 * bitmaps perturbed by sub-pixel jitter and Gaussian noise. What the
 * reliability study needs from the dataset is only that a real
 * trained classifier with non-trivial decision boundaries sits on
 * top of it, so that injected faults can flip classifications with
 * realistic probability.
 */

#ifndef MPARCH_NN_DIGITS_HH
#define MPARCH_NN_DIGITS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hh"

namespace mparch::nn {

/** Image side length of the synthetic digit task. */
inline constexpr std::size_t kDigitSize = 12;

/** Number of classes. */
inline constexpr std::size_t kDigitClasses = 10;

/**
 * The class prototypes, one 12x12 glyph per digit; '#' is ink (1.0),
 * '.' is background (0.0). Drawn to be mutually distinguishable but
 * with genuine confusable pairs (3/8, 1/7, 5/6) so the trained
 * classifier has non-trivial margins.
 */
inline constexpr std::array<const char *, kDigitClasses> kDigitGlyphs = {
    // 0
    "............"
    "...######..."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "...######..."
    "............"
    "............",
    // 1
    "............"
    ".....##....."
    "....###....."
    "...####....."
    ".....##....."
    ".....##....."
    ".....##....."
    ".....##....."
    ".....##....."
    "...######..."
    "............"
    "............",
    // 2
    "............"
    "...######..."
    "..##....##.."
    "........##.."
    ".......##..."
    "......##...."
    ".....##....."
    "....##......"
    "...##......."
    "..########.."
    "............"
    "............",
    // 3
    "............"
    "...######..."
    "..##....##.."
    "........##.."
    "....#####..."
    "........##.."
    "........##.."
    "........##.."
    "..##....##.."
    "...######..."
    "............"
    "............",
    // 4
    "............"
    "......###..."
    ".....####..."
    "....##.##..."
    "...##..##..."
    "..##...##..."
    "..########.."
    ".......##..."
    ".......##..."
    ".......##..."
    "............"
    "............",
    // 5
    "............"
    "..########.."
    "..##........"
    "..##........"
    "..#######..."
    "........##.."
    "........##.."
    "........##.."
    "..##....##.."
    "...######..."
    "............"
    "............",
    // 6
    "............"
    "...######..."
    "..##....##.."
    "..##........"
    "..#######..."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "...######..."
    "............"
    "............",
    // 7
    "............"
    "..########.."
    "........##.."
    ".......##..."
    "......##...."
    ".....##....."
    ".....##....."
    "....##......"
    "....##......"
    "....##......"
    "............"
    "............",
    // 8
    "............"
    "...######..."
    "..##....##.."
    "..##....##.."
    "...######..."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "...######..."
    "............"
    "............",
    // 9
    "............"
    "...######..."
    "..##....##.."
    "..##....##.."
    "..##....##.."
    "...#######.."
    "........##.."
    "........##.."
    "..##....##.."
    "...######..."
    "............"
    "............",
};

static_assert(std::ranges::all_of(kDigitGlyphs,
                                  [](const char *glyph) {
                                      const std::string_view g(glyph);
                                      return g.size() ==
                                                 kDigitSize * kDigitSize &&
                                             g.find('#') !=
                                                 std::string_view::npos;
                                  }),
              "every glyph is a kDigitSize x kDigitSize bitmap with ink");

/** One labelled sample in host-double pixels (0..1). */
struct DigitSample
{
    std::array<double, kDigitSize * kDigitSize> pixels{};
    std::size_t label = 0;
};

/**
 * Deterministic generator of digit samples.
 *
 * Prototypes are fixed glyph bitmaps; samples add +/-1 pixel shift
 * and i.i.d. Gaussian pixel noise, all drawn from the generator's
 * own seeded stream.
 */
class DigitGenerator
{
  public:
    /** @param seed  Stream seed (same seed -> same sample sequence).
     *  @param noise Pixel noise standard deviation. */
    explicit DigitGenerator(std::uint64_t seed, double noise = 0.15)
        : rng_(seed), noise_(noise)
    {}

    /** Draw the next sample (label chosen uniformly). */
    DigitSample next();

    /** Draw a sample of a specific class. */
    DigitSample sampleOf(std::size_t label);

  private:
    Rng rng_;
    double noise_;
};

} // namespace mparch::nn

#endif // MPARCH_NN_DIGITS_HH
