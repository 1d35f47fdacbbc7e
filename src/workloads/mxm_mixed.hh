/**
 * @file
 * Mixed-precision GEMM (extension workload).
 *
 * A half storage, single accumulation GEMM: half operands are
 * widened exactly to single and multiply-accumulated with a single
 * FMA, on the softfloat core. Mixed precision of this kind is absent
 * from the paper's benchmarks but implied by its title, so campaigns
 * can answer the natural follow-up question: does single
 * accumulation keep half's exposure benefits while recovering
 * double-like criticality? The model is this arithmetic only, not a
 * tensor core's datapath, tiling or internal accumulation order.
 */

#ifndef MPARCH_WORKLOADS_MXM_MIXED_HH
#define MPARCH_WORKLOADS_MXM_MIXED_HH

#include <algorithm>
#include <cmath>

#include "workloads/workload.hh"

namespace mparch::workloads {

/** GEMM with half storage and single-precision accumulation. */
class MxMMixedWorkload : public Workload
{
  public:
    using Half = fp::Fp<fp::Precision::Half>;
    using Single = fp::Fp<fp::Precision::Single>;

    /** @param scale Problem-size knob (matches MxMWorkload). */
    explicit MxMMixedWorkload(double scale = 1.0)
    {
        n_ = std::max<std::size_t>(
            8, static_cast<std::size_t>(std::lround(
                   40.0 * std::cbrt(std::max(scale, 1e-3)))));
        a_.resize(n_ * n_);
        b_.resize(n_ * n_);
        c_.resize(n_ * n_);
    }

    std::string name() const override { return "mxm-mixed"; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<MxMMixedWorkload>(*this);
    }

    /** The compute (accumulation) precision. */
    fp::Precision
    precision() const override
    {
        return fp::Precision::Single;
    }

    void
    reset(std::uint64_t input_seed) override
    {
        Rng rng(input_seed);
        for (auto &v : a_)
            v = Half::fromDouble(rng.uniform(-1.0, 1.0));
        for (auto &v : b_)
            v = Half::fromDouble(rng.uniform(-1.0, 1.0));
        std::fill(c_.begin(), c_.end(), Single{});
    }

    void
    execute(ExecutionEnv &env) override
    {
        const fp::Format h = fp::kHalf;
        const fp::Format s = fp::kSingle;
        for (std::size_t i = env.startTick(); i < n_; ++i) {
            env.tick();
            if (env.aborted())
                return;
            for (std::size_t j = 0; j < n_; ++j) {
                std::uint64_t acc = 0;  // +0.0f
                for (std::size_t k = 0; k < n_; ++k) {
                    // Half storage, single accumulation: widen the
                    // half operands exactly, multiply-accumulate in
                    // single.
                    const std::uint64_t wa = fp::fpConvert(
                        s, h, a_[i * n_ + k].bits());
                    const std::uint64_t wb = fp::fpConvert(
                        s, h, b_[k * n_ + j].bits());
                    acc = fp::fpFma(s, wa, wb, acc);
                }
                c_[i * n_ + j] = Single::fromBits(acc);
            }
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {makeBufferView("A", a_), makeBufferView("B", b_),
                makeBufferView("C", c_)};
    }

    BufferView output() override { return makeBufferView("C", c_); }

    std::vector<std::span<std::byte>>
    checkpointState() override
    {
        return {stateBytes(a_), stateBytes(b_), stateBytes(c_)};
    }

    KernelDesc
    desc() const override
    {
        KernelDesc d;
        d.liveValues = 3;
        d.inputStreams = 2;
        d.arithmeticIntensity = 0.5;
        d.branchDensity = 0.04;
        return d;
    }

  private:
    std::size_t n_ = 0;
    std::vector<Half> a_, b_;
    std::vector<Single> c_;
};

} // namespace mparch::workloads

#endif // MPARCH_WORKLOADS_MXM_MIXED_HH
