/**
 * @file
 * Microbenchmarks: Micro-ADD, Micro-MUL, Micro-FMA.
 *
 * Synthetic op chains after the paper's Section 3.1: each simulated
 * thread repeats a single arithmetic operation on register-resident
 * values, with negligible memory traffic and control flow, so the
 * architecture models can attribute the measured AVF/FIT purely to
 * the functional unit executing that operation. Chain constants are
 * chosen so the running value stays well inside binary16 range for
 * the whole chain.
 */

#ifndef MPARCH_WORKLOADS_MICRO_HH
#define MPARCH_WORKLOADS_MICRO_HH

#include <algorithm>
#include <cmath>

#include "workloads/workload.hh"

namespace mparch::workloads {

/** Which operation a micro chain stresses. */
enum class MicroOp { Add, Mul, Fma };

/** Name suffix for a MicroOp ("add", "mul", "fma"). */
constexpr const char *
microOpName(MicroOp op)
{
    switch (op) {
      case MicroOp::Add: return "add";
      case MicroOp::Mul: return "mul";
      case MicroOp::Fma: return "fma";
    }
    return "?";
}

/**
 * Chain constants, exactly representable in binary16:
 *  mul: x *= 1 + 2^-10  -> x_final ~ x0 * 7.0 after 2k steps
 *  add: x += 2^-10      -> x_final ~ x0 + 2
 *  fma: x = x*m + a, m = 1 - 2^-10: converges towards a/2^-10
 */
inline constexpr double kMicroMulK = 1.0009765625;
inline constexpr double kMicroAddK = 0.0009765625;
inline constexpr double kMicroFmaM = 0.9990234375;
inline constexpr double kMicroFmaA = 0.001708984375;

/** Single-operation chain benchmark at precision P. */
template <fp::Precision P>
class MicroWorkload : public Workload
{
  public:
    using Value = fp::Fp<P>;

    /**
     * @param op    The operation to stress.
     * @param scale Problem-size knob; 1.0 means 32 threads x 2,000
     *              iterations (64k operations).
     */
    explicit MicroWorkload(MicroOp op, double scale = 1.0)
        : op_(op)
    {
        threads_ = 32;
        iters_ = std::max<std::size_t>(
            64, static_cast<std::size_t>(std::lround(
                    2000.0 * std::max(scale, 1e-3))));
        x_.resize(threads_);
    }

    std::string
    name() const override
    {
        return std::string("micro-") + microOpName(op_);
    }

    fp::Precision precision() const override { return P; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<MicroWorkload<P>>(*this);
    }

    /** Simulated thread count. */
    std::size_t threads() const { return threads_; }

    void
    reset(std::uint64_t input_seed) override
    {
        Rng rng(input_seed);
        for (auto &v : x_)
            v = Value::fromDouble(rng.uniform(1.0, 2.0));
    }

    void
    execute(ExecutionEnv &env) override
    {
        const Value mul_k = Value::fromDouble(kMicroMulK);
        const Value add_k = Value::fromDouble(kMicroAddK);
        const Value fma_m = Value::fromDouble(kMicroFmaM);
        const Value fma_a = Value::fromDouble(kMicroFmaA);
        // One block per tick: one op of the stressed kind per thread.
        fp::OpCounts tick_ops{};
        tick_ops[static_cast<std::size_t>(opKind())] = threads_;
        for (std::size_t it = env.startTick(); it < iters_; ++it) {
            env.tick();
            if (env.aborted())
                return;
            fp::runBlock<P>(tick_ops, [&](auto load) {
                step(load, mul_k, add_k, fma_m, fma_a);
            });
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {makeBufferView("x", x_)};
    }

    BufferView output() override { return makeBufferView("x", x_); }

    std::vector<std::span<std::byte>>
    checkpointState() override
    {
        return {stateBytes(x_)};
    }

    KernelDesc
    desc() const override
    {
        KernelDesc d;
        d.liveValues = 2;
        d.inputStreams = 0;
        d.arithmeticIntensity = 1e6;  // register-only
        d.usesTranscendental = false;
        d.regularAccess = true;
        d.branchDensity = 0.002;  // paper: DUE ~1/10 of real codes
        return d;
    }

  private:
    /** The stressed op's kind. */
    fp::OpKind
    opKind() const
    {
        switch (op_) {
          case MicroOp::Add: return fp::OpKind::Add;
          case MicroOp::Mul: return fp::OpKind::Mul;
          case MicroOp::Fma: return fp::OpKind::Fma;
        }
        return fp::OpKind::NumKinds;
    }

    /** One tick: every thread applies the op once, on @p load's route. */
    template <class Load>
    void
    step(Load load, Value mul_k, Value add_k, Value fma_m, Value fma_a)
    {
        using V = typename Load::Value;
        switch (op_) {
          case MicroOp::Add: {
            const V k = load(add_k);
            for (auto &x : x_)
                x = Value(load(x) + k);
            break;
          }
          case MicroOp::Mul: {
            const V k = load(mul_k);
            for (auto &x : x_)
                x = Value(load(x) * k);
            break;
          }
          case MicroOp::Fma: {
            const V m = load(fma_m);
            const V a = load(fma_a);
            for (auto &x : x_)
                x = Value(fma(load(x), m, a));
            break;
          }
        }
    }

    MicroOp op_;
    std::size_t threads_;
    std::size_t iters_;
    std::vector<Value> x_;
};

} // namespace mparch::workloads

#endif // MPARCH_WORKLOADS_MICRO_HH
