#include "metrics/metrics.hh"

#include <algorithm>
#include <cmath>

namespace mparch::metrics {

TreCurve
treCurve(const fault::CampaignResult &result)
{
    TreCurve curve;
    curve.thresholds.assign(kTreThresholds.begin(),
                            kTreThresholds.end());
    curve.remaining.reserve(curve.thresholds.size());
    for (double t : curve.thresholds)
        curve.remaining.push_back(result.survivingFraction(t));
    return curve;
}

double
scrubbedErrorRate(double raw_rate, double avf, double interval)
{
    if (raw_rate <= 0.0 || avf <= 0.0 || interval <= 0.0)
        return 0.0;
    // Upsets arrive Poisson(raw_rate); each propagates independently
    // with probability avf, so propagating upsets are a thinned
    // Poisson process of rate raw_rate * avf and the interval stays
    // clean with probability exp(-raw_rate * avf * interval).
    const double p_clean = std::exp(-raw_rate * avf * interval);
    return (1.0 - p_clean) / interval;
}

} // namespace mparch::metrics
