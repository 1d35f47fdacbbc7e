/**
 * @file
 * Layered benchmark binary.
 *
 * Runs one benchmark workload (campaign_mxm, campaign_lowp or
 * scorecard) in a single process and prints one JSON document with
 * its metrics and a digest of every output it produced. run.py builds
 * this binary, compares the digests with references.json and prints
 * the benchmark's result line; see README.md.
 *
 * Modes:
 *  - setup: build the workload's inputs (workloads, golden runs,
 *    synthesis, pretraining) and report how long that took;
 *  - run:   set up, then repeat passes of the workload until the time
 *    budget is spent and report every repetition of each step, in
 *    normalised CPU seconds (end-to-end metrics, tracing off);
 *  - trace: alternating untraced and traced passes, then a probe of every
 *    layer through its public calls (per-layer metrics), written as a
 *    Chrome trace-event file.
 *
 * Every layer is timed from outside, around calls into its public
 * API; nothing inside the library is instrumented.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/fpga/fpga.hh"
#include "arch/gpu/sm_sim.hh"
#include "arch/phi/vpu_sim.hh"
#include "beam/virtual_beam.hh"
#include "common/json.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "fault/supervisor.hh"
#include "fp/softfloat.hh"
#include "metrics/metrics.hh"
#include "nn/mnistnet.hh"
#include "nn/nn_workloads.hh"
#include "report/registry.hh"

namespace fs = std::filesystem;
using namespace mparch;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds used so far by all threads of the process. Steps are
 * timed in CPU time: a shared host takes the cores away for stretches
 * of seconds (steal time), which inflates wall time but not CPU time
 * (see README.md, "Steadiness").
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// ------------------------------------------------------------ tracing

/** One timed call into a layer. Times are µs since process start. */
struct Span
{
    std::string name;
    std::string layer;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
};

/** In-memory span recorder; all spans come from the main thread. */
class Tracer
{
  public:
    bool enabled = false;
    std::vector<Span> spans;

    int
    begin(const std::string &name, const char *layer)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, layer, nowUs(), 0.0,
                         open_.empty() ? -1 : open_.back()});
        open_.push_back(static_cast<int>(spans.size() - 1));
        return open_.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans[static_cast<std::size_t>(id)].endUs = nowUs();
        open_.pop_back();
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<int> open_;
};

Tracer tracer;

/** RAII span around one call; a single branch when tracing is off. */
class Scope
{
  public:
    Scope(const std::string &name, const char *layer)
        : id_(tracer.begin(name, layer))
    {
    }
    ~Scope() { tracer.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

// ------------------------------------------------------------ digests

/** FNV-1a over the bytes of the values fed to it. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 1099511628211ULL;
        }
    }

    void
    word(std::uint64_t v)
    {
        bytes(&v, sizeof v);
    }

    void
    real(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        word(bits);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

/** Tallies, every SDC record and the fault anatomy, bit for bit. */
std::string
digestOf(const fault::CampaignResult &r)
{
    Digest d;
    for (const auto n : {r.trials, r.masked, r.sdc, r.due, r.detected})
        d.word(n);
    for (const auto &s : r.corpus) {
        d.real(s.maxRel);
        d.real(s.corruptedFraction);
        d.word(static_cast<std::uint64_t>(s.severity));
    }
    for (const auto &a : r.anatomy) {
        d.word(static_cast<std::uint64_t>(a.bit));
        d.word(static_cast<std::uint64_t>(a.field));
        d.word(static_cast<std::uint64_t>(a.outcome));
        d.real(a.maxRel);
    }
    return d.hex();
}

/** The document's JSON, with the host-dependent job count zeroed. */
std::string
digestOf(report::ResultDoc doc)
{
    doc.jobs = 0;
    std::ostringstream os;
    doc.writeJson(os);
    Digest d;
    const std::string text = os.str();
    d.bytes(text.data(), text.size());
    return d.hex();
}

// ---------------------------------------------------- step timing

// A frozen integer kernel: single-precision multiply and add on bit
// patterns of normal numbers, round to nearest even, in the style of
// the softfloat core. It belongs to the benchmark, not to the library,
// so no change under test moves it; its CPU time tracks how fast the
// host runs such code at that moment.
namespace reference {

[[gnu::noinline]] std::uint32_t
mul(std::uint32_t a, std::uint32_t b)
{
    const std::uint32_t sign = (a ^ b) & 0x80000000u;
    int e = static_cast<int>((a >> 23) & 0xff) +
            static_cast<int>((b >> 23) & 0xff) - 127;
    const std::uint64_t p = ((a & 0x7fffffu) | 0x800000u) *
                            std::uint64_t((b & 0x7fffffu) | 0x800000u);
    int shift = 23;
    if (p >> 47) {
        shift = 24;
        ++e;
    }
    const std::uint64_t half = 1ULL << (shift - 1);
    const std::uint64_t rem = p & ((1ULL << shift) - 1);
    std::uint64_t m = p >> shift;
    if (rem > half || (rem == half && (m & 1)))
        ++m;
    if (m >> 24) {
        m >>= 1;
        ++e;
    }
    return sign | (static_cast<std::uint32_t>(e) << 23) |
           (static_cast<std::uint32_t>(m) & 0x7fffffu);
}

[[gnu::noinline]] std::uint32_t
add(std::uint32_t a, std::uint32_t b)
{
    if ((a & 0x7fffffffu) < (b & 0x7fffffffu))
        std::swap(a, b);
    if ((b & 0x7fffffffu) == 0)
        return a;
    const int ea = static_cast<int>((a >> 23) & 0xff);
    const int d = ea - static_cast<int>((b >> 23) & 0xff);
    const std::uint64_t ma = std::uint64_t((a & 0x7fffffu) | 0x800000u)
                             << 32;
    std::uint64_t mb = std::uint64_t((b & 0x7fffffu) | 0x800000u) << 32;
    mb = d > 40 ? 1 : (mb >> d) | ((mb & ((1ULL << d) - 1)) != 0);
    std::uint64_t m = ((a ^ b) >> 31) ? ma - mb : ma + mb;
    if (m == 0)
        return 0;
    const int sh = 8 - __builtin_clzll(m);  // leading one to bit 55
    if (sh > 0)
        m = (m >> sh) | ((m & ((1ULL << sh) - 1)) != 0);
    else
        m <<= -sh;
    int e = ea + sh;
    const std::uint64_t rem = m & 0xffffffffULL;
    m >>= 32;
    if (rem > 0x80000000ULL || (rem == 0x80000000ULL && (m & 1)))
        ++m;
    if (m >> 24) {
        m >>= 1;
        ++e;
    }
    return (a & 0x80000000u) | (static_cast<std::uint32_t>(e) << 23) |
           (static_cast<std::uint32_t>(m) & 0x7fffffu);
}

volatile std::uint32_t gSink = 0;

/** CPU seconds of 1000 short dot products. */
double
kernelSeconds()
{
    static const std::vector<std::uint32_t> xs = [] {
        std::vector<std::uint32_t> v(64);
        Rng rng(12345);
        for (auto &x : v) {
            const float f = static_cast<float>(rng.uniform(0.5, 2.0)) *
                            (rng.chance(0.5) ? 1.0f : -1.0f);
            std::memcpy(&x, &f, sizeof x);
        }
        return v;
    }();
    std::uint32_t out = 0;
    const double c0 = cpuSeconds();
    for (int rep = 0; rep < 1000; ++rep) {
        std::uint32_t acc = 0;
        for (std::size_t i = 0; i + 1 < xs.size(); ++i)
            acc = add(acc, mul(xs[i], xs[i + 1]));
        out ^= acc;
    }
    const double s = cpuSeconds() - c0;
    gSink = gSink ^ out;
    return s;
}

/** kernelSeconds() on the host of baseline.json in a quiet stretch. */
constexpr double kQuietSeconds = 6.5e-4;

} // namespace reference

/**
 * Times one step of a pass in CPU seconds normalised to the host's
 * speed at that moment: the reference kernel runs just before the step,
 * and the step's CPU time is scaled by the kernel's quiet time over its
 * time now. Other tenants of a shared host slow all code by up to half
 * for minutes; the ratio cancels most of that (see README.md,
 * "Steadiness").
 */
class StepTimer
{
  public:
    StepTimer()
        : kernel_(reference::kernelSeconds()), start_(cpuSeconds())
    {
    }

    /** Normalised CPU seconds since construction. */
    double
    done() const
    {
        return (cpuSeconds() - start_) * reference::kQuietSeconds / kernel_;
    }

  private:
    double kernel_;
    double start_;
};

/** One checked output of a pass. */
struct Op
{
    std::string name;
    std::string digest;
    bool ok = true;  ///< no poisoned trial, refusal or inconsistency
};

// ---------------------------------------------------------- workloads

/** Command-line knobs. */
struct Options
{
    std::string mode = "run";
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string scratch = ".";
    std::string traceFile;
    bool tiny = false;
    bool perturb = false;
};

/** Inputs derived from the benchmark seed (16 reference classes). */
struct Inputs
{
    std::uint64_t seedClass = 0;
    std::uint64_t faultSeed = 1;
    std::uint64_t inputSeed = 99;
};

Inputs
inputsFor(std::uint64_t seed)
{
    Inputs in;
    in.seedClass = seed % 16;
    in.faultSeed = 1 + in.seedClass;
    in.inputSeed = 99 + in.seedClass;
    return in;
}

/** One campaign of a campaign workload. */
struct CampaignSpec
{
    const char *label;
    const char *workload;
    fp::Precision precision;
    double scale;
    fault::CampaignKind kind;
    std::uint64_t trials;
};

using fault::CampaignKind;
using fp::Precision;

// Campaigns are short (tens of milliseconds) so that a run repeats each
// one hundreds of times (see README.md, "Steadiness").
const std::vector<CampaignSpec> kMxmSpecs = {
    {"memory.mxm.single", "mxm", Precision::Single, 0.3,
     CampaignKind::Memory, 50},
    {"datapath.mxm.single", "mxm", Precision::Single, 0.3,
     CampaignKind::Datapath, 25},
    {"persistent.mxm.single", "mxm", Precision::Single, 0.3,
     CampaignKind::Persistent, 25},
};

const std::vector<CampaignSpec> kLowpSpecs = {
    {"datapath.micro-fma.half", "micro-fma", Precision::Half, 0.02,
     CampaignKind::Datapath, 500},
    {"datapath.lavamd.bfloat16", "lavamd", Precision::Bfloat16, 0.1,
     CampaignKind::Datapath, 50},
    {"memory.yolite.half", "yolite", Precision::Half, 0.5,
     CampaignKind::Memory, 125},
};

/**
 * Worker threads of campaign_lowp. Two, not every core: on a shared
 * host one of four cores is nearly always slowed by another tenant, and
 * the reference kernel of StepTimer runs on the calling thread only.
 */
constexpr unsigned kLowpJobs = 2;

/** Trial indices replayed from each journal. */
const std::uint64_t kReplayIndices[] = {0, 1, 2, 3, 5, 8, 13, 21, 34};

/** Scorecard trial override. */
constexpr std::uint64_t kScorecardTrials = 5;

fault::CampaignConfig
configFor(const CampaignSpec &spec, const Inputs &in)
{
    fault::CampaignConfig c;
    c.trials = spec.trials;
    c.seed = in.faultSeed;
    c.inputSeed = in.inputSeed;
    c.recordAnatomy = spec.kind == CampaignKind::Memory;
    return c;
}

/** A campaign workload instance ready for its first trial. */
struct Prepared
{
    const CampaignSpec *spec = nullptr;
    workloads::WorkloadPtr w;
    std::vector<fault::EngineAllocation> engines;
};

/** The benchmark workload being run, with its state across passes. */
class Bench
{
  public:
    explicit Bench(const Options &opt)
        : opt_(opt), in_(inputsFor(opt.seed))
    {
    }

    bool
    known() const
    {
        return isCampaign() || opt_.workload == "scorecard";
    }

    /** Everything up to the first trial or experiment. */
    void
    setup()
    {
        Scope s("setup", "bench");
        if (!isCampaign()) {
            {
                Scope m("nn.pretrained_mnist", "models");
                nn::pretrainedMnist();
            }
            for (const auto &e : report::experiments())
                if (e.kind != report::ExperimentKind::Engine)
                    experiments_.push_back(&e);
            return;
        }
        for (const auto &spec : specs()) {
            Prepared p;
            p.spec = &spec;
            p.w = nn::makeAnyWorkload(spec.workload, spec.precision,
                                      spec.scale);
            std::shared_ptr<const fault::GoldenRun> golden;
            {
                Scope g("fault.golden_run", "fault");
                golden = fault::cachedGoldenRun(*p.w, in_.inputSeed,
                                                spec.scale);
            }
            if (spec.kind == CampaignKind::Persistent) {
                Scope f("arch.fpga.synthesize", "models");
                p.engines = fpga::synthesize(*p.w, *golden).engines;
            }
            prepared_.push_back(std::move(p));
        }
    }

    /** One pass of the workload; appends its outputs to @p ops. */
    void
    pass(std::vector<Op> &ops, std::vector<double> &steps)
    {
        Scope s("pass", "bench");
        if (opt_.workload == "campaign_mxm")
            mxmPass(ops, steps);
        else if (opt_.workload == "campaign_lowp")
            lowpPass(ops, steps);
        else
            scorecardPass(ops, steps);
    }

    const Inputs &inputs() const { return in_; }

  private:
    bool
    isCampaign() const
    {
        return opt_.workload == "campaign_mxm" ||
               opt_.workload == "campaign_lowp";
    }

    const std::vector<CampaignSpec> &
    specs() const
    {
        return opt_.workload == "campaign_mxm" ? kMxmSpecs : kLowpSpecs;
    }

    fault::SupervisorConfig
    supervisorFor(const CampaignSpec &spec, unsigned jobs) const
    {
        fault::SupervisorConfig s;
        s.jobs = jobs;
        s.scale = spec.scale;
        s.useGoldenCache = true;
        return s;
    }

    fault::SupervisedCampaign
    campaign(const Prepared &p, const fault::SupervisorConfig &sup)
    {
        Scope s("fault.campaign." + std::string(p.spec->label), "fault");
        return fault::runSupervisedCampaign(
            *p.w, p.spec->kind, configFor(*p.spec, in_), sup,
            fp::OpKind::NumKinds, p.engines);
    }

    Op
    campaignOp(const std::string &prefix, const Prepared &p,
               const fault::SupervisedCampaign &run)
    {
        const auto journalFailures = run.failureCounts[static_cast<
            std::size_t>(fault::TrialFailure::JournalIo)];
        Op op{prefix + p.spec->label, "",
              run.complete() && run.poisoned == 0 && journalFailures == 0};
        if (opt_.perturb && !perturbed_) {
            // The self-test of the output check: hash a perturbed copy.
            fault::CampaignResult copy = run.result;
            ++copy.masked;
            op.digest = digestOf(copy);
            perturbed_ = true;
        } else {
            op.digest = digestOf(run.result);
        }
        return op;
    }

    void
    mxmPass(std::vector<Op> &ops, std::vector<double> &steps)
    {
        for (const auto &p : prepared_) {
            const StepTimer timer;
            const auto run = campaign(p, supervisorFor(*p.spec, 1));
            steps.push_back(timer.done());
            ops.push_back(campaignOp("campaign:", p, run));
        }
    }

    void
    lowpPass(std::vector<Op> &ops, std::vector<double> &steps)
    {
        std::vector<std::string> journals;
        for (const auto &p : prepared_) {
            auto sup = supervisorFor(*p.spec, kLowpJobs);
            sup.journalPath =
                (fs::path(opt_.scratch) / (std::string(p.spec->label) +
                                           ".mpj"))
                    .string();
            journals.push_back(sup.journalPath);
            const StepTimer timer;
            const auto run = campaign(p, sup);
            steps.push_back(timer.done());
            ops.push_back(campaignOp("campaign:", p, run));
        }
        // Resume every complete journal: the read path of a restart.
        for (std::size_t i = 0; i < prepared_.size(); ++i) {
            const auto &p = prepared_[i];
            auto sup = supervisorFor(*p.spec, kLowpJobs);
            sup.journalPath = journals[i];
            sup.resume = true;
            const StepTimer timer;
            fault::SupervisedCampaign run;
            {
                Scope s("fault.resume." + std::string(p.spec->label),
                        "fault");
                run = fault::runSupervisedCampaign(
                    *p.w, p.spec->kind, configFor(*p.spec, in_), sup,
                    fp::OpKind::NumKinds, p.engines);
            }
            steps.push_back(timer.done());
            Op op = campaignOp("resume:", p, run);
            op.ok = op.ok && run.resumed == run.planned;
            ops.push_back(op);
        }
        // Replay a fixed set of trials from each journal.
        for (std::size_t i = 0; i < prepared_.size(); ++i) {
            const StepTimer timer;
            ops.push_back(replay(prepared_[i], journals[i]));
            steps.push_back(timer.done());
        }
    }

    Op
    replay(const Prepared &p, const std::string &path)
    {
        Op op{"replay:" + std::string(p.spec->label), "", true};
        std::optional<fault::Journal> journal;
        {
            Scope s("fault.read_journal", "fault");
            journal = fault::readJournal(path);
        }
        if (!journal) {
            op.ok = false;
            return op;
        }
        Digest d;
        for (const auto index : kReplayIndices) {
            Scope s("fault.replay_trial", "fault");
            const auto r = fault::replayTrial(*p.w, *journal, index);
            op.ok = op.ok && r.error.empty() && r.consistent;
            d.word(static_cast<std::uint64_t>(r.trial.outcome));
            d.real(r.trial.sdc.maxRel);
        }
        op.digest = d.hex();
        return op;
    }

    void
    scorecardPass(std::vector<Op> &ops, std::vector<double> &steps)
    {
        // Every pass does the first pass's work: golden runs again.
        fault::clearGoldenRunCache();
        // Serial: on a shared host, parallel experiments spread by 20-40%
        // from run to run; campaign_lowp covers the parallel executor.
        report::RunContext ctx;
        ctx.trials = kScorecardTrials;
        ctx.jobs = 1;
        ctx.progress = false;
        for (const auto *e : experiments_) {
            const StepTimer timer;
            report::ResultDoc doc;
            {
                Scope s("report." + e->id, "report");
                doc = report::runExperiment(*e, ctx);
            }
            steps.push_back(timer.done());
            if (opt_.perturb && !perturbed_) {
                doc.notes.push_back("perturbed copy");
                perturbed_ = true;
            }
            ops.push_back({"experiment:" + e->id, digestOf(doc), true});
        }
    }

    const Options &opt_;
    Inputs in_;
    std::vector<Prepared> prepared_;
    std::vector<const report::Experiment *> experiments_;
    bool perturbed_ = false;
};

// ------------------------------------------------------------- probes

using Metrics = std::map<std::string, double>;

/** Identity hook: installs the instrumented path, perturbs nothing. */
class IdentityHook : public fp::FpHook
{
};

enum class FpOp { Add, Mul, Fma, Div, Sqrt, Exp };

const std::pair<FpOp, const char *> kFpOps[] = {
    {FpOp::Add, "add"}, {FpOp::Mul, "mul"},   {FpOp::Fma, "fma"},
    {FpOp::Div, "div"}, {FpOp::Sqrt, "sqrt"}, {FpOp::Exp, "exp"},
};

const Precision kFpPrecisions[] = {
    Precision::Half, Precision::Bfloat16, Precision::Single,
    Precision::Double,
};

std::uint64_t
applyFp(FpOp op, fp::Format f, std::uint64_t a, std::uint64_t b,
        std::uint64_t c)
{
    switch (op) {
      case FpOp::Add:  return fp::fpAdd(f, a, b);
      case FpOp::Mul:  return fp::fpMul(f, a, b);
      case FpOp::Fma:  return fp::fpFma(f, a, b, c);
      case FpOp::Div:  return fp::fpDiv(f, a, b);
      case FpOp::Sqrt: return fp::fpSqrt(f, a);
      case FpOp::Exp:  return fp::fpExp(f, a);
    }
    return 0;
}

volatile std::uint64_t gSink = 0;

/** ns per softfloat op over random normal operands. */
double
timeFpOp(FpOp op, Precision p, bool hooked, std::uint64_t seed,
         double budget)
{
    const fp::Format f = fp::formatOf(p);
    constexpr std::size_t kN = 1024;
    std::vector<std::uint64_t> a(kN), b(kN), c(kN);
    Rng rng(seed);
    for (std::size_t i = 0; i < kN; ++i) {
        const double lo = op == FpOp::Exp ? -4.0 : 0.5;
        const double sign = op == FpOp::Sqrt || rng.chance(0.5) ? 1.0
                                                                : -1.0;
        a[i] = fp::fpFromDouble(f, sign * rng.uniform(lo, 4.0));
        b[i] = fp::fpFromDouble(f, rng.uniform(0.5, 4.0));
        c[i] = fp::fpFromDouble(f, rng.uniform(-4.0, 4.0));
    }
    fp::FpContext ctx;
    IdentityHook hook;
    if (hooked)
        ctx.hook = &hook;
    fp::FpEnvGuard guard(ctx);
    std::uint64_t sink = 0;
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    do {
        for (std::size_t i = 0; i < kN; ++i)
            sink ^= applyFp(op, f, a[i], b[i], c[i]);
        ops += kN;
    } while (secondsSince(t0) < budget);
    const double s = secondsSince(t0);
    gSink = gSink ^ sink;
    return s * 1e9 / static_cast<double>(ops);
}

/** ns per host fmaf in a dependent chain (the native floor). */
double
timeNativeFma(std::uint64_t seed, double budget)
{
    constexpr std::size_t kN = 1024;
    std::vector<float> a(kN), b(kN);
    Rng rng(seed);
    for (std::size_t i = 0; i < kN; ++i) {
        a[i] = static_cast<float>(rng.uniform(0.5, 0.99));
        b[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    float x = 1.0f;
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    do {
        for (std::size_t i = 0; i < kN; ++i)
            x = std::fma(x, a[i], b[i]);
        ops += kN;
    } while (secondsSince(t0) < budget);
    const double s = secondsSince(t0);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    gSink = gSink ^ bits;
    return s * 1e9 / static_cast<double>(ops);
}

/** Time @p fn repeatedly (at least @p minReps, until @p budget). */
template <typename Fn>
std::vector<double>
repeat(Fn &&fn, int minReps, double budget)
{
    std::vector<double> out;
    const auto t0 = Clock::now();
    while (static_cast<int>(out.size()) < minReps ||
           secondsSince(t0) < budget) {
        const auto t = Clock::now();
        fn();
        out.push_back(secondsSince(t));
        if (out.size() >= 100000)
            break;
    }
    return out;
}

class Prober
{
  public:
    Prober(const Options &opt, const Inputs &in, Metrics &m,
           std::vector<Op> &ops)
        : opt_(opt), in_(in), m_(m), ops_(ops),
          budget_(opt.tiny ? 0.002 : 0.03)
    {
    }

    void
    all(bool scorecardTraced)
    {
        fpLayer();
        workloadLayer();
        trialLayer();
        campaignLayer();
        journalLayer();
        commonLayer();
        modelLayer();
        if (!scorecardTraced)
            reportLayer();
    }

  private:
    void
    fpLayer()
    {
        const std::uint64_t seed = 7000 + in_.seedClass;
        for (const auto &[op, opName] : kFpOps) {
            for (const auto p : kFpPrecisions) {
                const std::string name = std::string("fp.") + opName +
                                         "." +
                                         std::string(fp::precisionName(p));
                Scope s(name, "fp");
                m_[name + ".ns"] = timeFpOp(op, p, false, seed, budget_);
            }
        }
        for (const auto p : kFpPrecisions) {
            const std::string name =
                "fp.fma." + std::string(fp::precisionName(p));
            Scope s(name + ".hooked", "fp");
            m_[name + ".hooked_ns"] =
                timeFpOp(FpOp::Fma, p, true, seed, budget_);
        }
        Scope s("fp.native_fma.single", "fp");
        m_["fp.native_fma.single.ns"] = timeNativeFma(seed, budget_);
    }

    void
    workloadLayer()
    {
        struct W
        {
            const char *name;
            Precision p;
            double scale;
        };
        const W list[] = {
            {"mxm", Precision::Single, 0.3},
            {"mxm", Precision::Half, 0.3},
            {"lavamd", Precision::Double, 0.3},
            {"lud", Precision::Single, 0.3},
            {"micro-fma", Precision::Half, 0.02},
            {"yolite", Precision::Half, 0.5},
        };
        for (const auto &entry : list) {
            const std::string key = "workloads." + std::string(entry.name) +
                                    "." +
                                    std::string(fp::precisionName(entry.p));
            auto w = nn::makeAnyWorkload(entry.name, entry.p, entry.scale);
            fp::FpContext ctx;
            fp::FpEnvGuard guard(ctx);
            std::vector<double> resets, executes;
            const auto t0 = Clock::now();
            while (resets.size() < 3 ||
                   secondsSince(t0) < 10 * budget_) {
                {
                    Scope s(key + ".reset", "workloads");
                    const auto t = Clock::now();
                    w->reset(in_.inputSeed);
                    resets.push_back(secondsSince(t));
                }
                Scope s(key + ".execute", "workloads");
                workloads::ExecutionEnv env;
                const auto t = Clock::now();
                w->execute(env);
                executes.push_back(secondsSince(t));
            }
            m_[key + ".reset_us"] = 1e6 * median(resets);
            m_[key + ".execute_us"] = 1e6 * median(executes);
        }
    }

    std::vector<fault::EngineAllocation>
    enginesFor(const CampaignSpec &spec, workloads::Workload &w,
               const fault::GoldenRun &golden)
    {
        if (spec.kind != CampaignKind::Persistent)
            return {};
        return fpga::synthesize(w, golden).engines;
    }

    void
    trialLayer()
    {
        std::vector<const CampaignSpec *> all;
        for (const auto &s : kMxmSpecs)
            all.push_back(&s);
        for (const auto &s : kLowpSpecs)
            all.push_back(&s);
        std::map<std::string, bool> goldenDone;
        for (const auto *spec : all) {
            auto w = nn::makeAnyWorkload(spec->workload, spec->precision,
                                         spec->scale);
            const std::string wkey =
                std::string(spec->workload) + "." +
                std::string(fp::precisionName(spec->precision));
            std::shared_ptr<const fault::GoldenRun> golden;
            {
                Scope s("fault.golden_run." + wkey, "fault");
                const auto t = Clock::now();
                golden = std::make_shared<const fault::GoldenRun>(
                    *w, in_.inputSeed);
                if (!goldenDone[wkey])
                    m_["fault.golden_run." + wkey + ".ms"] =
                        1e3 * secondsSince(t);
                goldenDone[wkey] = true;
            }
            const auto engines = enginesFor(*spec, *w, *golden);
            const auto config = configFor(*spec, in_);
            std::unique_ptr<fault::TrialRunner> runner;
            {
                const std::string kind = fault::campaignKindName(spec->kind);
                Scope s("fault.runner_setup." + kind, "fault");
                const auto t = Clock::now();
                runner = fault::makeTrialRunner(*w, spec->kind, config,
                                                fp::OpKind::NumKinds,
                                                engines, golden);
                if (wkey == "mxm.single")
                    m_["fault.runner_setup." + kind + ".ms"] =
                        1e3 * secondsSince(t);
            }
            const std::uint64_t n = opt_.tiny ? 20 : 1000;
            std::vector<double> us;
            std::uint64_t masked = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                Scope s("fault.trial", "fault");
                const auto t = Clock::now();
                const auto outcome = runner->runTrial(i);
                us.push_back(1e6 * secondsSince(t));
                masked += outcome.outcome == fault::OutcomeKind::Masked;
            }
            const std::string key =
                "fault.trial." + std::string(spec->label);
            m_[key + ".us_p50"] = median(us);
            m_[key + ".us_p99"] = percentile(us, 0.99);
            m_[key + ".masked_frac"] =
                static_cast<double>(masked) / static_cast<double>(n);
        }
    }

    void
    campaignLayer()
    {
        const unsigned jobs = parallel::hardwareJobs();
        for (const auto &spec : kMxmSpecs) {
            auto w = nn::makeAnyWorkload(spec.workload, spec.precision,
                                         spec.scale);
            const auto golden =
                fault::cachedGoldenRun(*w, in_.inputSeed, spec.scale);
            const auto engines = enginesFor(spec, *w, *golden);
            auto config = configFor(spec, in_);
            config.trials = opt_.tiny ? 40 : 400;
            const std::string kind = fault::campaignKindName(spec.kind);
            double tps[2] = {0.0, 0.0};
            for (int leg = 0; leg < 2; ++leg) {
                fault::SupervisorConfig sup;
                sup.jobs = leg == 0 ? 1 : jobs;
                sup.scale = spec.scale;
                sup.useGoldenCache = true;
                const std::string name = "fault.campaign." + kind +
                                         (leg == 0 ? ".jobs1" : ".jobsN");
                Scope s(name, "fault");
                const auto t = Clock::now();
                const auto run = fault::runSupervisedCampaign(
                    *w, spec.kind, config, sup, fp::OpKind::NumKinds,
                    engines);
                tps[leg] = static_cast<double>(run.result.trials) /
                           secondsSince(t);
                m_[name + ".trials_per_s"] = tps[leg];
                if (spec.kind == CampaignKind::Memory && leg == 0)
                    treInput_ = run.result;
            }
            m_["fault.campaign." + kind + ".parallel_efficiency"] =
                tps[1] / tps[0] / static_cast<double>(jobs);
        }
    }

    void
    journalLayer()
    {
        const CampaignSpec &spec = kLowpSpecs[0];
        auto w = nn::makeAnyWorkload(spec.workload, spec.precision,
                                     spec.scale);
        auto config = configFor(spec, in_);
        config.trials = opt_.tiny ? 400 : 4000;
        fault::SupervisorConfig sup;
        sup.jobs = 0;
        sup.scale = spec.scale;
        sup.useGoldenCache = true;
        sup.journalPath =
            (fs::path(opt_.scratch) / "probe-journal.mpj").string();
        {
            Scope s("fault.campaign.journaled", "fault");
            fault::runSupervisedCampaign(*w, spec.kind, config, sup);
        }
        m_["fault.journal.bytes_per_trial"] =
            static_cast<double>(fs::file_size(sup.journalPath)) /
            static_cast<double>(config.trials);

        std::optional<fault::Journal> journal;
        const auto reads = repeat(
            [&] {
                Scope s("fault.read_journal", "fault");
                journal = fault::readJournal(sup.journalPath);
            },
            3, 10 * budget_);
        m_["fault.journal.read_ms"] = 1e3 * median(reads);

        const std::string copy =
            (fs::path(opt_.scratch) / "probe-append.mpj").string();
        std::uint64_t appended = 0;
        double appendS = 0.0;
        {
            Scope s("fault.journal.append", "fault");
            const auto t = Clock::now();
            fault::JournalWriter writer(copy, journal->header, 256, true);
            for (int rep = 0; rep < (opt_.tiny ? 1 : 5); ++rep) {
                for (const auto &rec : journal->records)
                    writer.append(rec);
                appended += journal->records.size();
            }
            writer.flush();
            appendS = secondsSince(t);
        }
        m_["fault.journal.append_us_per_trial"] =
            1e6 * appendS / static_cast<double>(appended);

        sup.resume = true;
        const auto resumes = repeat(
            [&] {
                Scope s("fault.resume", "fault");
                fault::runSupervisedCampaign(*w, spec.kind, config, sup);
            },
            3, 10 * budget_);
        m_["fault.resume.ms"] = 1e3 * median(resumes);

        std::vector<double> replays;
        for (const auto index : kReplayIndices) {
            Scope s("fault.replay_trial", "fault");
            const auto t = Clock::now();
            fault::replayTrial(*w, *journal, index);
            replays.push_back(secondsSince(t));
        }
        m_["fault.replay.ms_p50"] = 1e3 * median(replays);
        fs::remove(sup.journalPath);
        fs::remove(copy);
    }

    void
    commonLayer()
    {
        const unsigned producers = parallel::hardwareJobs();
        const std::uint64_t items = opt_.tiny ? 20000 : 400000;
        parallel::ThreadPool pool(producers);
        {
            Scope s("common.parallel.ordered_channel", "common");
            parallel::IndexChunker chunker(items, 16);
            parallel::OrderedChannel<std::uint64_t> channel(256,
                                                            producers);
            const auto t = Clock::now();
            pool.start([&](unsigned) {
                std::uint64_t b = 0, e = 0;
                while (chunker.next(b, e))
                    for (std::uint64_t i = b; i < e; ++i)
                        channel.put(i, i);
                channel.producerDone();
            });
            std::uint64_t taken = 0;
            while (channel.take())
                ++taken;
            pool.wait();
            m_["common.parallel.channel_ns_per_item"] =
                1e9 * secondsSince(t) / static_cast<double>(taken);
        }
        Scope s("common.parallel.dispatch", "common");
        const int dispatches = opt_.tiny ? 200 : 4000;
        const auto t = Clock::now();
        for (int i = 0; i < dispatches; ++i)
            pool.run([](unsigned) {});
        m_["common.parallel.dispatch_us"] =
            1e6 * secondsSince(t) / dispatches;
    }

    void
    modelLayer()
    {
        auto w = workloads::makeWorkload("mxm", Precision::Single, 0.3);
        const fault::GoldenRun golden(*w, in_.inputSeed);
        m_["arch.fpga.synthesize_ms"] =
            1e3 * median(repeat(
                      [&] {
                          Scope s("arch.fpga.synthesize", "models");
                          fpga::synthesize(*w, golden);
                      },
                      5, 5 * budget_));
        m_["arch.phi.simulate_vpu_ms"] =
            1e3 * median(repeat(
                      [] {
                          Scope s("arch.phi.simulate_vpu", "models");
                          phi::simulateVpu(phi::VpuConfig{},
                                           phi::VpuProgram{});
                      },
                      5, 5 * budget_));
        m_["arch.gpu.simulate_sm_ms"] =
            1e3 * median(repeat(
                      [] {
                          Scope s("arch.gpu.simulate_sm", "models");
                          gpu::simulateSm(gpu::SmConfig{},
                                          gpu::WarpProgram{});
                      },
                      5, 5 * budget_));

        beam::ResourceInventory inventory;
        inventory.node = beam::Node::Gpu12nm;
        inventory.entries = {
            {"datapath", beam::BitClass::DatapathLatch, 4.0e4, 0.3, 0.0},
            {"regfile", beam::BitClass::SramData, 2.0e5, 0.1, 0.01},
            {"control", beam::BitClass::ControlLatch, 1.0e3, 0.2, 0.5},
        };
        const double fluence = 2.0e4 / inventory.rawRate();
        Rng rng(in_.faultSeed);
        m_["beam.run_beam_ms"] =
            1e3 * median(repeat(
                      [&] {
                          Scope s("beam.run_beam", "models");
                          beam::runBeam(inventory, fluence, rng);
                      },
                      5, 5 * budget_));

        nn::TrainConfig train;
        if (opt_.tiny) {
            train.samples = 100;
            train.epochs = 1;
        }
        {
            Scope s("nn.train_mnist", "models");
            const auto t = Clock::now();
            nn::trainMnist(train);
            m_["nn.mnist_pretrain_s"] = secondsSince(t);
        }
        m_["metrics.tre_curve_us"] =
            1e6 * median(repeat(
                      [&] {
                          Scope s("metrics.tre_curve", "models");
                          metrics::treCurve(treInput_);
                      },
                      5, 5 * budget_));
    }

    void
    reportLayer()
    {
        Options scorecard = opt_;
        scorecard.workload = "scorecard";
        Bench bench(scorecard);
        bench.setup();
        std::vector<double> steps;
        bench.pass(ops_, steps);
    }

    const Options &opt_;
    Inputs in_;
    Metrics &m_;
    std::vector<Op> &ops_;
    double budget_;
    fault::CampaignResult treInput_;
};

/** Self time per layer: span time not covered by child spans. */
void
layerSelfTimes(Metrics &m)
{
    std::vector<double> self(tracer.spans.size());
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const auto &s = tracer.spans[i];
        self[i] += s.endUs - s.startUs;
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                s.endUs - s.startUs;
    }
    for (const char *layer :
         {"fp", "workloads", "fault", "common", "models", "report"})
        m[std::string("layer.") + layer + ".self_s"] = 0.0;
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const std::string key =
            "layer." + tracer.spans[i].layer + ".self_s";
        if (m.count(key))
            m[key] += 1e-6 * self[i];
    }
}

// --------------------------------------------------------------- host

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
writeHost(json::Writer &w)
{
#if defined(__clang__)
    const char *compiler = "clang";
#elif defined(__GNUC__)
    const char *compiler = "gcc";
#else
    const char *compiler = "unknown";
#endif
    w.key("host")
        .beginObject()
        .member("nproc", parallel::hardwareJobs())
        .member("compiler", compiler)
        .member("compiler_version", __VERSION__)
        .member("build_type", LAYERBENCH_BUILD_TYPE)
        .member("cpu_model", cpuModel())
        .endObject();
}

void
writeTrace(const std::string &path)
{
    std::ofstream os(path);
    json::Writer w(os);
    w.beginObject().member("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    for (const auto &s : tracer.spans) {
        w.beginObject()
            .member("name", s.name)
            .member("cat", s.layer)
            .member("ph", "X")
            .member("ts", s.startUs)
            .member("dur", s.endUs - s.startUs)
            .member("pid", 1)
            .member("tid", 1);
        w.key("args").beginObject().member("parent", s.parent).endObject();
        w.endObject();
    }
    w.endArray();
    w.key("otherData").beginObject();
    writeHost(w);
    w.endObject().endObject();
    os << "\n";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --mode setup|run|trace --workload NAME --seed N\n"
                 "       [--seconds S] [--scratch DIR] [--trace-file F]"
                 " [--tiny] [--perturb]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--perturb") {
            opt.perturb = true;
        } else if (!hasValue) {
            return usage(argv[0]);
        } else if (arg == "--mode") {
            opt.mode = argv[++i];
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
        } else if (arg == "--seed") {
            opt.seed = std::stoull(argv[++i]);
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(argv[++i]);
        } else if (arg == "--scratch") {
            opt.scratch = argv[++i];
        } else if (arg == "--trace-file") {
            opt.traceFile = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    Bench bench(opt);
    if (!bench.known() ||
        (opt.mode != "setup" && opt.mode != "run" && opt.mode != "trace"))
        return usage(argv[0]);

    const StepTimer setupTimer;
    bench.setup();
    const double setupS = setupTimer.done();

    Metrics m;
    std::vector<Op> ops;
    std::vector<double> passes;
    std::vector<double> steps;
    std::size_t perPass = 0;
    if (opt.mode == "run") {
        const auto t0 = Clock::now();
        while (passes.empty() ||
               secondsSince(t0) + median(passes) <= opt.seconds) {
            const auto t = Clock::now();
            bench.pass(ops, steps);
            passes.push_back(secondsSince(t));
        }
        perPass = steps.size() / passes.size();
        m["peak_rss_mb"] = peakRssMb();
    } else if (opt.mode == "trace") {
        // Alternate untraced and traced passes; the fastest of each
        // keeps host noise out of the difference.
        double untraced = 1e300, traced = 1e300;
        const auto t0 = Clock::now();
        for (int rep = 0; rep < 3 || secondsSince(t0) < 2.0; ++rep) {
            for (const bool on : {false, true}) {
                tracer.enabled = on;
                const double c0 = cpuSeconds();
                bench.pass(ops, steps);
                double &fastest = on ? traced : untraced;
                fastest = std::min(fastest, cpuSeconds() - c0);
            }
        }
        m["trace.overhead_s"] = traced - untraced;
        Prober(opt, bench.inputs(), m, ops)
            .all(opt.workload == "scorecard");
        for (const auto &s : tracer.spans) {
            if (s.layer == "report" && s.name.rfind("report.", 0) == 0) {
                const double sec = 1e-6 * (s.endUs - s.startUs);
                const auto [it, fresh] = m.try_emplace(s.name + ".s", sec);
                if (!fresh)
                    it->second = std::min(it->second, sec);
            }
        }
        layerSelfTimes(m);
        if (!opt.traceFile.empty())
            writeTrace(opt.traceFile);
    }

    json::Writer w(std::cout);
    w.beginObject()
        .member("workload", opt.workload)
        .member("mode", opt.mode)
        .member("seed_class", bench.inputs().seedClass)
        .member("setup_s", setupS)
        .member("passes", static_cast<std::uint64_t>(passes.size()));
    writeHost(w);
    w.key("metrics").beginObject();
    for (const auto &[name, value] : m)
        w.member(name, value);
    w.endObject();
    // Every repetition of each step of a pass; run.py pools them over
    // the segments of a run and sums the steps' medians.
    w.key("step_seconds").beginArray();
    for (std::size_t k = 0; k < perPass; ++k) {
        w.beginArray();
        for (std::size_t i = k; i < steps.size(); i += perPass)
            w.value(steps[i]);
        w.endArray();
    }
    w.endArray();
    w.key("ops").beginArray();
    for (const auto &op : ops) {
        w.beginObject()
            .member("name", op.name)
            .member("digest", op.digest)
            .member("ok", op.ok)
            .endObject();
    }
    w.endArray().endObject();
    std::cout << "\n";
    return 0;
}
