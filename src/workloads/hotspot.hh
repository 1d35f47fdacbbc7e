/**
 * @file
 * Hotspot benchmark (extension workload).
 *
 * Rodinia's hotspot thermal simulation: iterate a 5-point stencil
 * that relaxes a chip temperature grid against a power map. Not one
 * of the paper's five benchmarks, but a standard kernel in this
 * research group's companion studies, and a useful counterpoint in
 * mparch: its arithmetic mix is *addition*-dominated (neighbour sums
 * and scaling), so the GPU model predicts its FIT trend follows
 * Micro-ADD (single/half above double) where LavaMD follows
 * Micro-MUL — a testable prediction beyond the paper's figures.
 */

#ifndef MPARCH_WORKLOADS_HOTSPOT_HH
#define MPARCH_WORKLOADS_HOTSPOT_HH

#include <algorithm>
#include <cmath>

#include "workloads/workload.hh"

namespace mparch::workloads {

/** Hotspot stencil relaxation at precision P. */
template <fp::Precision P>
class HotspotWorkload : public Workload
{
  public:
    using Value = fp::Fp<P>;

    /**
     * @param scale Problem-size knob; 1.0 means a 24x24 grid relaxed
     *              for 8 sweeps.
     */
    explicit HotspotWorkload(double scale = 1.0)
    {
        n_ = std::max<std::size_t>(
            8, static_cast<std::size_t>(std::lround(
                   24.0 * std::cbrt(std::max(scale, 1e-3)))));
        iters_ = 8;
        temp_.resize(n_ * n_);
        power_.resize(n_ * n_);
        next_.resize(n_ * n_);
    }

    std::string name() const override { return "hotspot"; }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<HotspotWorkload<P>>(*this);
    }

    void
    reset(std::uint64_t input_seed) override
    {
        Rng rng(input_seed);
        for (std::size_t i = 0; i < n_ * n_; ++i) {
            // Ambient temperature around 0.6 (normalised), mild
            // power map: values stay well inside binary16 range.
            temp_[i] = Value::fromDouble(rng.uniform(0.55, 0.65));
            power_[i] = Value::fromDouble(rng.uniform(0.0, 0.02));
        }
        std::fill(next_.begin(), next_.end(), Value{});
    }

    void
    execute(ExecutionEnv &env) override
    {
        const Value k = Value::fromDouble(0.125);     // diffusion
        const Value ambient = Value::fromDouble(0.6);
        const Value leak = Value::fromDouble(0.015);  // sink
        for (std::size_t it = env.startTick(); it < iters_; ++it) {
            env.tick();
            if (env.aborted())
                return;
            for (std::size_t r = 0; r < n_; ++r) {
                for (std::size_t c = 0; c < n_; ++c) {
                    const Value centre = temp_[r * n_ + c];
                    // Clamped (insulated) borders.
                    const Value north =
                        r > 0 ? temp_[(r - 1) * n_ + c] : centre;
                    const Value south = r + 1 < n_
                                            ? temp_[(r + 1) * n_ + c]
                                            : centre;
                    const Value west =
                        c > 0 ? temp_[r * n_ + c - 1] : centre;
                    const Value east = c + 1 < n_
                                           ? temp_[r * n_ + c + 1]
                                           : centre;
                    // ADD-heavy update: one mul for the diffusion
                    // scale, one for leakage, the rest additions.
                    const Value sum =
                        ((north + south) + (west + east)) -
                        (((centre + centre) + centre) + centre);
                    Value t = centre + k * sum;
                    t = t + power_[r * n_ + c];
                    t = t - leak * (centre - ambient);
                    next_[r * n_ + c] = t;
                }
            }
            std::swap(temp_, next_);
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {makeBufferView("temp", temp_),
                makeBufferView("power", power_),
                makeBufferView("next", next_)};
    }

    BufferView output() override { return makeBufferView("temp", temp_); }

    std::vector<std::span<std::byte>>
    checkpointState() override
    {
        return {stateBytes(temp_), stateBytes(power_), stateBytes(next_)};
    }

    KernelDesc
    desc() const override
    {
        KernelDesc d;
        d.liveValues = 7;  // centre, 4 neighbours, sum, power
        d.inputStreams = 2;
        d.arithmeticIntensity = 3.0;
        d.usesTranscendental = false;
        d.regularAccess = true;
        d.branchDensity = 0.06;  // border handling
        return d;
    }

  private:
    std::size_t n_ = 0;
    std::size_t iters_ = 0;
    std::vector<Value> temp_, power_, next_;
};

} // namespace mparch::workloads

#endif // MPARCH_WORKLOADS_HOTSPOT_HH
