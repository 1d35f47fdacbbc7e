#include "nn/digits.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mparch::nn {

DigitSample
DigitGenerator::next()
{
    return sampleOf(rng_.below(kDigitClasses));
}

DigitSample
DigitGenerator::sampleOf(std::size_t label)
{
    MPARCH_ASSERT(label < kDigitClasses, "bad digit label");
    DigitSample sample;
    sample.label = label;
    const char *glyph = kDigitGlyphs[label];

    // Integer jitter of +/-1 pixel in each axis.
    const int dx = static_cast<int>(rng_.between(-1, 1));
    const int dy = static_cast<int>(rng_.between(-1, 1));
    const auto n = static_cast<int>(kDigitSize);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            const int sy = y - dy, sx = x - dx;
            double ink = 0.0;
            if (sy >= 0 && sy < n && sx >= 0 && sx < n)
                ink = glyph[sy * n + sx] == '#' ? 1.0 : 0.0;
            ink += rng_.normal(0.0, noise_);
            sample.pixels[static_cast<std::size_t>(y * n + x)] =
                std::clamp(ink, 0.0, 1.0);
        }
    }
    return sample;
}

} // namespace mparch::nn
