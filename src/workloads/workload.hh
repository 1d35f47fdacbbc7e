/**
 * @file
 * The workload abstraction shared by the fault injector, the virtual
 * beam engine and the architecture models.
 *
 * A workload owns its input/working/output buffers, exposes them to
 * the injector through type-erased BufferViews, and calls
 * ExecutionEnv::tick() at injection-safe points so a fault can be
 * placed at a random instant of the execution — CAROL-FI's "interrupt
 * the program at a random time, corrupt a random variable" protocol.
 */

#ifndef MPARCH_WORKLOADS_WORKLOAD_HH
#define MPARCH_WORKLOADS_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fp/host.hh"
#include "fp/value.hh"

namespace mparch::workloads {

/**
 * Type-erased mutable view of one live data buffer.
 *
 * Fault injectors flip bits through set()/get() without knowing the
 * buffer's static precision.
 */
struct BufferView
{
    std::string name;
    fp::Precision precision = fp::Precision::Double;
    std::size_t count = 0;   ///< number of elements
    std::function<std::uint64_t(std::size_t)> get;
    std::function<void(std::size_t, std::uint64_t)> set;

    /** Total data bits held by this buffer. */
    std::uint64_t
    bits() const
    {
        return static_cast<std::uint64_t>(count) *
               fp::formatOf(precision).totalBits;
    }
};

/** Build a BufferView over a vector of typed values. */
template <fp::Precision P>
BufferView
makeBufferView(std::string name, std::vector<fp::Fp<P>> &data)
{
    BufferView view;
    view.name = std::move(name);
    view.precision = P;
    view.count = data.size();
    view.get = [&data](std::size_t i) { return data[i].bits(); };
    view.set = [&data](std::size_t i, std::uint64_t bits) {
        data[i].setBits(bits);
    };
    return view;
}

/** Byte span over a state vector (Workload::checkpointState). */
template <typename T>
std::span<std::byte>
stateBytes(std::vector<T> &data)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "checkpointed state is copied with memcpy");
    return std::as_writable_bytes(std::span<T>(data));
}

/**
 * Execution environment handed to Workload::execute().
 *
 * tick() is called by workloads once per outer-loop step; the
 * injector schedules its corruption at a uniformly random tick, and
 * the watchdog aborts executions that exceed their tick budget
 * (a hang, classified as a DUE).
 */
class ExecutionEnv
{
  public:
    ExecutionEnv() = default;

    /** An environment resuming at tick @p start: a resumable
     *  workload's outer loop starts from startTick(). */
    explicit ExecutionEnv(std::uint64_t start)
        : start_(start), ticks_(start)
    {}

    /** Callback fired before the given tick executes. */
    std::function<void(std::uint64_t)> onTick;

    /** Abort threshold; 0 disables the watchdog. */
    std::uint64_t tickBudget = 0;

    /** Advance one injection-safe point. */
    void
    tick()
    {
        if (onTick)
            onTick(ticks_);
        ++ticks_;
        if (tickBudget && ticks_ > tickBudget)
            timedOut_ = true;
    }

    /** End the execution at this tick because its outcome is
     *  already known (a trial proven masked); not a hang. */
    void stop() { stopped_ = true; }

    /** True once the watchdog fired or stop() was called; workloads
     *  must return early. */
    bool aborted() const { return timedOut_ || stopped_; }

    /** True once the watchdog fired (a hang). */
    bool timedOut() const { return timedOut_; }

    /** Ticks executed so far, counted from tick 0 even when the
     *  execution resumed later. */
    std::uint64_t ticks() const { return ticks_; }

    /** The tick this environment resumes at; 0 when fresh, also for
     *  a second kernel run in the same environment (a replica). */
    std::uint64_t startTick() const { return start_; }

  private:
    std::uint64_t start_ = 0;
    std::uint64_t ticks_ = 0;
    bool timedOut_ = false;
    bool stopped_ = false;
};

/**
 * Static kernel descriptor consumed by the architecture models
 * (compiler register-allocation heuristic, timing, DUE control-bit
 * estimation). Values describe the algorithm, not a measurement.
 */
struct KernelDesc
{
    /** Live scalar temporaries in the vectorised inner loop. */
    int liveValues = 4;

    /** Distinct input streams the inner loop reads. */
    int inputStreams = 2;

    /**
     * Arithmetic intensity in flops per element loaded; low values
     * mark memory-bound kernels (MxM without tiling), high values
     * compute-bound ones (LavaMD).
     */
    double arithmeticIntensity = 1.0;

    /** Kernel calls transcendental functions (exp). */
    bool usesTranscendental = false;

    /** Inner-loop accesses are regular/streaming (prefetchable). */
    bool regularAccess = true;

    /** Branch/control operations per arithmetic operation. */
    double branchDensity = 0.02;

    /** Data-dependent loop bound (defeats static unrolling). */
    bool dataDependentBounds = false;
};

/**
 * A hardware engine of an accelerator implementing this workload.
 *
 * When a spatial design (FPGA) implements a workload, distinct
 * program phases map to distinct physical engines (a CNN's conv
 * engine vs its fully-connected engine). An Engine names the dynamic
 * operation window it executes: within each period of @c period
 * operations of kind @c kind, indices in [lo, hi) belong to this
 * engine. period == 0 means "all operations of the kind".
 */
struct Engine
{
    std::string name;
    fp::OpKind kind = fp::OpKind::Fma;
    std::uint64_t period = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    /** Fraction of the kind's dynamic operations this engine runs. */
    double
    share() const
    {
        if (period == 0)
            return 1.0;
        return static_cast<double>(hi - lo) /
               static_cast<double>(period);
    }
};

/**
 * Severity levels of an SDC, assigned by the workload's comparator.
 *
 * Numeric kernels only use Tolerable/Critical via TRE analysis in the
 * metrics layer; neural-network workloads override classifySdc() to
 * implement the paper's classification- and detection-change split.
 */
enum class SdcSeverity
{
    Tolerable,          ///< output corrupted, semantics preserved
    DetectionChange,    ///< (YOLO) box geometry changed
    CriticalChange,     ///< classification / detected class changed
};

/**
 * What a workload factory built. With an input seed it fixes the
 * workload's behaviour, and so its golden run: it keys the golden-run
 * cache and fills a journal header's workload lines.
 */
struct WorkloadIdentity
{
    std::string name;
    fp::Precision precision = fp::Precision::Double;
    double scale = 1.0;  ///< the factory's problem-size knob

    auto operator<=>(const WorkloadIdentity &) const = default;
};

/**
 * Abstract benchmark executed under fault injection.
 *
 * Lifecycle per trial: restore a golden checkpoint or reset(seed)
 * (which regenerates inputs and clears outputs, bit-identically for
 * identical seeds), execute() the kernel (instrumented softfloat
 * inside the caller's FpEnvGuard), then the campaign inspects
 * output() and classifySdc().
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name ("mxm", "lavamd", ...). */
    virtual std::string name() const = 0;

    /**
     * Deep copy of this workload, buffers and all, so parallel
     * campaign workers can each own an isolated instance. Clones of
     * the same workload must behave bit-identically under identical
     * reset()/execute() sequences (all concrete workloads are
     * value-semantic, so the copy constructor satisfies this).
     */
    virtual std::unique_ptr<Workload> clone() const = 0;

    /** Data/operation precision this instance runs at. */
    virtual fp::Precision precision() const = 0;

    /** The identity the factory stamped on this workload (see
     *  stamped()), kept by copies and clones; null for a hand-built
     *  workload. */
    const WorkloadIdentity *
    identity() const
    {
        return identity_ ? &*identity_ : nullptr;
    }

    /** Regenerate inputs deterministically and clear outputs. */
    virtual void reset(std::uint64_t input_seed) = 0;

    /**
     * Run the kernel, honouring env.aborted() between ticks. A
     * resumable workload (see checkpointState()) starts its outer
     * loop at env.startTick(), so a fresh environment runs it whole.
     */
    virtual void execute(ExecutionEnv &env) = 0;

    /**
     * Byte spans over all of this workload's mutable state, for
     * golden-prefix checkpoints (docs/performance.md). A trial copies
     * a checkpoint of the golden run into these spans instead of
     * calling reset(), then resumes execute() at the checkpoint's
     * tick.
     *
     * Contract for a non-empty list: the spans cover everything
     * execute() reads or writes, no counted FP op runs before the
     * first tick(), and execute() under an ExecutionEnv starting at
     * tick t does exactly what the whole run does from its t-th
     * tick() on. The spans are taken afresh at every use, since a
     * workload may swap buffers between ticks.
     *
     * Empty (the default) means not resumable: trials reset() and
     * run from tick 0.
     */
    virtual std::vector<std::span<std::byte>> checkpointState()
    {
        return {};
    }

    /** Live data buffers eligible for fault injection. */
    virtual std::vector<BufferView> buffers() = 0;

    /** The output buffer compared against the golden run. */
    virtual BufferView output() = 0;

    /** Algorithm descriptor for the architecture models. */
    virtual KernelDesc desc() const = 0;

    /**
     * Hardware engines a spatial implementation would instantiate.
     *
     * The default maps each executed operation kind to one engine;
     * layered workloads (CNNs) override this to separate per-layer
     * engines so persistent faults stay inside one engine.
     *
     * @param golden_ops Dynamic op counts of a fault-free run.
     */
    virtual std::vector<Engine>
    engines(const fp::FpContext &golden_ops) const
    {
        std::vector<Engine> list;
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(fp::OpKind::NumKinds); ++k) {
            const auto kind = static_cast<fp::OpKind>(k);
            if (kind == fp::OpKind::Exp)
                continue;  // realised as constituent mul/fma ops
            if (golden_ops.count(kind) == 0)
                continue;
            Engine engine;
            engine.name = fp::opKindName(kind);
            engine.kind = kind;
            list.push_back(engine);
        }
        return list;
    }

    /**
     * Severity of the current (known corrupted) output versus the
     * golden bits. Numeric kernels return CriticalChange and leave
     * tolerance decisions to TRE analysis; CNN workloads override.
     *
     * @param golden_bits Golden output bit patterns, element-wise.
     */
    virtual SdcSeverity
    classifySdc(const std::vector<std::uint64_t> &golden_bits)
    {
        (void)golden_bits;
        return SdcSeverity::CriticalChange;
    }

    /**
     * True when the workload's own error detector fired during the
     * last execute() (duplication mismatch, failed ABFT checksum it
     * could not correct, ...). Campaigns classify such runs as
     * detected errors — the recoverable cousin of a DUE — instead of
     * SDCs or masks.
     */
    virtual bool detectedError() const { return false; }

  private:
    friend std::unique_ptr<Workload>
    stamped(std::unique_ptr<Workload> w, double scale);

    std::optional<WorkloadIdentity> identity_;
};

/** Shorthand for factory results. */
using WorkloadPtr = std::unique_ptr<Workload>;

/**
 * Stamp @p w, just built by a factory at @p scale, with its identity
 * (name, precision, scale) and return it. Every factory in the tree
 * does so once: makeWorkload(), nn::makeAnyWorkload() and the
 * mitigation makers. A workload whose behaviour depends on more than
 * its identity and input seed must stay unstamped, or the golden-run
 * cache would serve it another workload's reference.
 */
WorkloadPtr stamped(WorkloadPtr w, double scale);

/** Factory for one benchmark at a precision and problem scale. */
using WorkloadMaker = WorkloadPtr (*)(fp::Precision p, double scale);

/**
 * The WorkloadMaker of benchmark template @p W: instantiates it at a
 * runtime precision. @p Args lead the constructor arguments, before
 * the scale.
 */
template <template <fp::Precision> class W, auto... Args>
WorkloadPtr
dispatch(fp::Precision p, double scale)
{
    switch (p) {
      case fp::Precision::Half:
        return std::make_unique<W<fp::Precision::Half>>(Args..., scale);
      case fp::Precision::Single:
        return std::make_unique<W<fp::Precision::Single>>(Args..., scale);
      case fp::Precision::Double:
        return std::make_unique<W<fp::Precision::Double>>(Args..., scale);
      case fp::Precision::Bfloat16:
        return std::make_unique<W<fp::Precision::Bfloat16>>(Args...,
                                                             scale);
    }
    panic("unknown precision");
}

/** The factory makeWorkload() dispatches @p name to; null for an
 *  unknown name. */
WorkloadMaker findWorkload(std::string_view name);

/**
 * Instantiate a benchmark by name and precision, stamped with its
 * identity.
 *
 * Throws via fatal() on names findWorkload() does not know.
 *
 * @param scale 1.0 is the default problem size; campaigns can shrink
 *              (or grow) the run time with this knob.
 */
WorkloadPtr makeWorkload(const std::string &name, fp::Precision p,
                         double scale = 1.0);

} // namespace mparch::workloads

#endif // MPARCH_WORKLOADS_WORKLOAD_HH
