/**
 * @file
 * LUD benchmark.
 *
 * In-place Doolittle LU factorisation without pivoting (Rodinia's
 * lud), run on a diagonally dominant random matrix so the
 * factorisation is well conditioned at every precision. CPU-bound,
 * division-bearing, and — per the paper's Xeon Phi compiler analysis —
 * the one kernel whose single- and double-precision builds use the
 * same number of vector registers.
 */

#ifndef MPARCH_WORKLOADS_LUD_HH
#define MPARCH_WORKLOADS_LUD_HH

#include <algorithm>
#include <cmath>

#include "workloads/workload.hh"

namespace mparch::workloads {

/** LU decomposition at precision P. */
template <fp::Precision P>
class LudWorkload : public Workload
{
  public:
    using Value = fp::Fp<P>;

    /** @param scale Problem-size knob; 1.0 means a 40x40 matrix. */
    explicit LudWorkload(double scale = 1.0)
    {
        n_ = std::max<std::size_t>(
            8, static_cast<std::size_t>(std::lround(
                   40.0 * std::cbrt(std::max(scale, 1e-3)))));
        m_.resize(n_ * n_);
    }

    std::string name() const override { return "lud"; }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<LudWorkload<P>>(*this);
    }

    void
    reset(std::uint64_t input_seed) override
    {
        Rng rng(input_seed);
        for (std::size_t i = 0; i < n_; ++i) {
            for (std::size_t j = 0; j < n_; ++j) {
                double v = rng.uniform(-1.0, 1.0);
                if (i == j)
                    v += static_cast<double>(n_);  // dominance
                m_[i * n_ + j] = Value::fromDouble(v);
            }
        }
    }

    void
    execute(ExecutionEnv &env) override
    {
        for (std::size_t k = env.startTick(); k < n_; ++k) {
            env.tick();
            if (env.aborted())
                return;
            const Value pivot = m_[k * n_ + k];
            for (std::size_t i = k + 1; i < n_; ++i) {
                const Value l = m_[i * n_ + k] / pivot;
                m_[i * n_ + k] = l;
                for (std::size_t j = k + 1; j < n_; ++j)
                    m_[i * n_ + j] -= l * m_[k * n_ + j];
            }
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {makeBufferView("M", m_)};
    }

    BufferView output() override { return makeBufferView("M", m_); }

    std::vector<std::span<std::byte>>
    checkpointState() override
    {
        return {stateBytes(m_)};
    }

    KernelDesc
    desc() const override
    {
        KernelDesc d;
        d.liveValues = 4;   // l, pivot, streamed row elements
        d.inputStreams = 2;
        d.arithmeticIntensity = 2.0;
        d.usesTranscendental = false;
        d.regularAccess = true;
        d.branchDensity = 0.08;  // triangular loops branch more
        // The shrinking trip count defeats the vectoriser's static
        // unrolling: single and double allocate alike (paper 5.0).
        d.dataDependentBounds = true;
        return d;
    }

  private:
    std::size_t n_;
    std::vector<Value> m_;
};

} // namespace mparch::workloads

#endif // MPARCH_WORKLOADS_LUD_HH
