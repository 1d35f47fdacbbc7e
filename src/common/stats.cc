#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace mparch {

namespace {

/** z value for a two-sided 95% normal interval. */
constexpr double z95 = 1.959963984540054;

} // namespace

Interval
wilson95(std::uint64_t hits, std::uint64_t trials)
{
    if (trials == 0)
        return {0.0, 1.0};
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(hits) / n;
    const double z2 = z95 * z95;
    const double denom = 1.0 + z2 / n;
    const double centre = p + z2 / (2.0 * n);
    const double spread =
        z95 * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
    return {std::max(0.0, (centre - spread) / denom),
            std::min(1.0, (centre + spread) / denom)};
}

Interval
poissonRate95(std::uint64_t events, double exposure)
{
    if (exposure <= 0.0)
        return {0.0, 0.0};
    const double k = static_cast<double>(events);
    // Normal approximation on the count, clamped at zero; adequate
    // for the >50-event campaigns mparch runs by default.
    const double half = z95 * std::sqrt(std::max(k, 1.0));
    return {std::max(0.0, k - half) / exposure, (k + half) / exposure};
}

} // namespace mparch
