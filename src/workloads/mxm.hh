/**
 * @file
 * MxM / GEMM benchmark.
 *
 * Dense matrix multiplication C = A x B, the paper's cornerstone
 * compute kernel (Section 3.1): a pure FMA chain, memory-bound in the
 * paper's non-tiled GPU form. The same source runs in double, single
 * and half precision via the Fp<P> value type. Each output element is
 * one fp::fmaChain call, which runs each run of fmas no fault strikes
 * as one host block (fp/host.hh) and counts and hooks them exactly as
 * the per-op loop.
 */

#ifndef MPARCH_WORKLOADS_MXM_HH
#define MPARCH_WORKLOADS_MXM_HH

#include <algorithm>
#include <cmath>

#include "workloads/workload.hh"

namespace mparch::workloads {

/** Matrix multiplication at precision P. */
template <fp::Precision P>
class MxMWorkload : public Workload
{
  public:
    using Value = fp::Fp<P>;

    /** @param scale Problem-size knob; 1.0 means a 40x40 multiply. */
    explicit MxMWorkload(double scale = 1.0)
    {
        n_ = std::max<std::size_t>(
            8, static_cast<std::size_t>(std::lround(
                   40.0 * std::cbrt(std::max(scale, 1e-3)))));
        a_.resize(n_ * n_);
        b_.resize(n_ * n_);
        c_.resize(n_ * n_);
    }

    std::string name() const override { return "mxm"; }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<MxMWorkload<P>>(*this);
    }

    /** Matrix dimension. */
    std::size_t dim() const { return n_; }

    void
    reset(std::uint64_t input_seed) override
    {
        Rng rng(input_seed);
        // Entries in [-1, 1): row sums stay far from half's max.
        for (auto &v : a_)
            v = Value::fromDouble(rng.uniform(-1.0, 1.0));
        for (auto &v : b_)
            v = Value::fromDouble(rng.uniform(-1.0, 1.0));
        std::fill(c_.begin(), c_.end(), Value{});
    }

    void
    execute(ExecutionEnv &env) override
    {
        for (std::size_t i = env.startTick(); i < n_; ++i) {
            env.tick();
            if (env.aborted())
                return;
            // c[i][j] = sum over k of a[i][k] * b[k][j], one fma
            // chain per output element (k ascending, from +0).
            for (std::size_t j = 0; j < n_; ++j) {
                c_[i * n_ + j] = fp::fmaChain(&a_[i * n_], 1, &b_[j], n_,
                                              n_, Value{});
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
        d.liveValues = 3;          // acc + streamed a/b elements
        d.inputStreams = 2;
        // Non-tiled GEMM re-reads operands O(n) times: memory-bound.
        d.arithmeticIntensity = 0.5;
        d.usesTranscendental = false;
        d.regularAccess = true;
        d.branchDensity = 0.04;
        return d;
    }

  private:
    std::size_t n_;
    std::vector<Value> a_, b_, c_;
};

} // namespace mparch::workloads

#endif // MPARCH_WORKLOADS_MXM_HH
