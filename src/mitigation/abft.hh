/**
 * @file
 * ABFT (algorithm-based fault tolerance) matrix multiplication.
 *
 * Huang & Abraham's checksum scheme: alongside C = A x B, compute
 * the expected row sums of C from A and the row-sum vector of B, and
 * the expected column sums from the column-sum vector of A and B.
 * After the multiply, rows/columns whose sums disagree beyond the
 * rounding tolerance locate a corrupted element, which is corrected
 * from its row checksum. Everything — including the checksum
 * arithmetic itself — runs in the target precision through the
 * instrumented softfloat core, so faults can strike the protection
 * machinery too, and the rounding tolerance (which grows as the
 * precision shrinks) genuinely weakens detection at half precision:
 * the precision-vs-protection tradeoff the paper's discussion points
 * towards.
 */

#ifndef MPARCH_MITIGATION_ABFT_HH
#define MPARCH_MITIGATION_ABFT_HH

#include <algorithm>
#include <cmath>

#include "workloads/workload.hh"

namespace mparch::mitigation {

/** ABFT-protected matrix multiplication at precision P. */
template <fp::Precision P>
class AbftMxMWorkload : public workloads::Workload
{
  public:
    using Value = fp::Fp<P>;

    /** @param scale Problem-size knob (matches MxMWorkload). */
    explicit AbftMxMWorkload(double scale = 1.0)
    {
        n_ = std::max<std::size_t>(
            8, static_cast<std::size_t>(std::lround(
                   40.0 * std::cbrt(std::max(scale, 1e-3)))));
        a_.resize(n_ * n_);
        b_.resize(n_ * n_);
        c_.resize(n_ * n_);
        row_chk_.resize(n_);
        col_chk_.resize(n_);
    }

    std::string name() const override { return "mxm-abft"; }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<workloads::Workload>
    clone() const override
    {
        return std::make_unique<AbftMxMWorkload<P>>(*this);
    }

    void
    reset(std::uint64_t input_seed) override
    {
        Rng rng(input_seed);
        for (auto &v : a_)
            v = Value::fromDouble(rng.uniform(-1.0, 1.0));
        for (auto &v : b_)
            v = Value::fromDouble(rng.uniform(-1.0, 1.0));
        std::fill(c_.begin(), c_.end(), Value{});
        std::fill(row_chk_.begin(), row_chk_.end(), Value{});
        std::fill(col_chk_.begin(), col_chk_.end(), Value{});
        detected_ = false;
    }

    void
    execute(workloads::ExecutionEnv &env) override
    {
        // The protected product.
        for (std::size_t i = 0; i < n_; ++i) {
            env.tick();
            if (env.aborted())
                return;
            for (std::size_t j = 0; j < n_; ++j) {
                Value acc{};
                for (std::size_t k = 0; k < n_; ++k)
                    acc = fma(a_[i * n_ + k], b_[k * n_ + j], acc);
                c_[i * n_ + j] = acc;
            }
        }

        // Independent checksum products: row_chk_i = A_i . rowsum(B),
        // col_chk_j = colsum(A) . B_j.
        std::vector<Value> b_rowsum(n_), a_colsum(n_);
        for (std::size_t k = 0; k < n_; ++k) {
            Value rs{}, cs{};
            for (std::size_t j = 0; j < n_; ++j)
                rs += b_[k * n_ + j];
            for (std::size_t i = 0; i < n_; ++i)
                cs += a_[i * n_ + k];
            b_rowsum[k] = rs;
            a_colsum[k] = cs;
        }
        env.tick();
        if (env.aborted())
            return;
        for (std::size_t i = 0; i < n_; ++i) {
            Value acc{};
            for (std::size_t k = 0; k < n_; ++k)
                acc = fma(a_[i * n_ + k], b_rowsum[k], acc);
            row_chk_[i] = acc;
        }
        for (std::size_t j = 0; j < n_; ++j) {
            Value acc{};
            for (std::size_t k = 0; k < n_; ++k)
                acc = fma(a_colsum[k], b_[k * n_ + j], acc);
            col_chk_[j] = acc;
        }
        env.tick();
        if (env.aborted())
            return;
        verifyAndCorrect();
    }

    std::vector<workloads::BufferView>
    buffers() override
    {
        return {workloads::makeBufferView("A", a_),
                workloads::makeBufferView("B", b_),
                workloads::makeBufferView("C", c_),
                workloads::makeBufferView("rowChk", row_chk_),
                workloads::makeBufferView("colChk", col_chk_)};
    }

    workloads::BufferView
    output() override
    {
        return workloads::makeBufferView("C", c_);
    }

    workloads::KernelDesc
    desc() const override
    {
        workloads::KernelDesc d;
        d.liveValues = 4;
        d.inputStreams = 2;
        d.arithmeticIntensity = 0.5;
        d.branchDensity = 0.06;  // checksum comparisons branch
        return d;
    }

    bool detectedError() const override { return detected_; }

  private:
    /**
     * Row/column checksum verification with a rounding-aware
     * tolerance; a single (row, column) intersection is corrected
     * from the row checksum.
     */
    void
    verifyAndCorrect()
    {
        // Tolerance: summing n rounded terms admits ~n/2 ulp drift;
        // use 4n eps relative to the row magnitude, where eps is the
        // format's unit roundoff — visibly looser at half precision.
        const double eps =
            std::ldexp(1.0, -static_cast<int>(
                                fp::formatOf(P).manBits));
        const double slack = 4.0 * static_cast<double>(n_) * eps;

        std::vector<std::size_t> bad_rows, bad_cols;
        std::vector<double> row_delta(n_);
        for (std::size_t i = 0; i < n_; ++i) {
            Value sum{};
            double mag = 0.0;
            for (std::size_t j = 0; j < n_; ++j) {
                sum += c_[i * n_ + j];
                mag += std::abs(c_[i * n_ + j].toDouble());
            }
            const double delta =
                sum.toDouble() - row_chk_[i].toDouble();
            row_delta[i] = delta;
            if (std::abs(delta) > slack * std::max(mag, 1.0))
                bad_rows.push_back(i);
        }
        for (std::size_t j = 0; j < n_; ++j) {
            Value sum{};
            double mag = 0.0;
            for (std::size_t i = 0; i < n_; ++i) {
                sum += c_[i * n_ + j];
                mag += std::abs(c_[i * n_ + j].toDouble());
            }
            const double delta =
                sum.toDouble() - col_chk_[j].toDouble();
            if (std::abs(delta) > slack * std::max(mag, 1.0))
                bad_cols.push_back(j);
        }

        if (bad_rows.empty() && bad_cols.empty())
            return;  // clean (or corruption below tolerance)
        if (bad_rows.size() == 1 && bad_cols.size() == 1) {
            // Single-element corruption: subtract the row surplus.
            const std::size_t i = bad_rows[0], j = bad_cols[0];
            const Value fix = Value::fromDouble(row_delta[i]);
            c_[i * n_ + j] -= fix;
            return;
        }
        // Multi-element or checksum-side corruption: detect only.
        detected_ = true;
    }

    std::size_t n_ = 0;
    std::vector<Value> a_, b_, c_;
    std::vector<Value> row_chk_, col_chk_;
    bool detected_ = false;
};

/** Factory matching the workload registries' signature; the result
 *  is stamped with its identity (workloads::stamped). */
workloads::WorkloadPtr makeAbftMxM(fp::Precision p,
                                   double scale = 1.0);

} // namespace mparch::mitigation

#endif // MPARCH_MITIGATION_ABFT_HH
