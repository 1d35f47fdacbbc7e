#include "mitigation/replicated.hh"

#include "workloads/workload.hh"

namespace mparch::mitigation {

using workloads::BufferView;
using workloads::ExecutionEnv;
using workloads::KernelDesc;
using workloads::Workload;
using workloads::WorkloadPtr;

ReplicatedWorkload::ReplicatedWorkload(Redundancy scheme,
                                       std::vector<WorkloadPtr>
                                           replicas)
    : scheme_(scheme), replicas_(std::move(replicas))
{
    const std::size_t want = scheme == Redundancy::Dwc ? 2 : 3;
    MPARCH_ASSERT(replicas_.size() == want,
                  "replica count must match the redundancy scheme");
    for (const auto &r : replicas_) {
        MPARCH_ASSERT(r->name() == replicas_[0]->name() &&
                          r->precision() == replicas_[0]->precision(),
                      "replicas must be identical benchmarks");
    }
}

std::string
ReplicatedWorkload::name() const
{
    return replicas_[0]->name() + "-" + redundancyName(scheme_);
}

ReplicatedWorkload::ReplicatedWorkload(const ReplicatedWorkload &other)
    : Workload(other), scheme_(other.scheme_), voted_(other.voted_),
      detected_(other.detected_)
{
    replicas_.reserve(other.replicas_.size());
    for (const auto &r : other.replicas_)
        replicas_.push_back(r->clone());
}

std::unique_ptr<Workload>
ReplicatedWorkload::clone() const
{
    return std::make_unique<ReplicatedWorkload>(*this);
}

fp::Precision
ReplicatedWorkload::precision() const
{
    return replicas_[0]->precision();
}

void
ReplicatedWorkload::reset(std::uint64_t input_seed)
{
    for (auto &r : replicas_)
        r->reset(input_seed);
    voted_.clear();
    detected_ = false;
}

void
ReplicatedWorkload::execute(ExecutionEnv &env)
{
    for (auto &r : replicas_) {
        r->execute(env);
        if (env.aborted())
            return;
    }

    // Vote / compare on exact bit patterns, as a hardware voter on
    // the output bus would.
    const BufferView out0 = replicas_[0]->output();
    const BufferView out1 = replicas_[1]->output();
    voted_.resize(out0.count);
    if (scheme_ == Redundancy::Dwc) {
        for (std::size_t i = 0; i < out0.count; ++i) {
            const std::uint64_t a = out0.get(i);
            if (a != out1.get(i))
                detected_ = true;
            voted_[i] = a;
        }
        return;
    }
    const BufferView out2 = replicas_[2]->output();
    for (std::size_t i = 0; i < out0.count; ++i) {
        const std::uint64_t a = out0.get(i);
        const std::uint64_t b = out1.get(i);
        const std::uint64_t c = out2.get(i);
        if (a == b || a == c) {
            voted_[i] = a;
        } else if (b == c) {
            voted_[i] = b;
        } else {
            // Three-way disagreement: unrecoverable, flag it.
            voted_[i] = a;
            detected_ = true;
        }
    }
}

std::vector<BufferView>
ReplicatedWorkload::buffers()
{
    std::vector<BufferView> all;
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
        for (auto &view : replicas_[r]->buffers()) {
            view.name = "r" + std::to_string(r) + "/" + view.name;
            all.push_back(std::move(view));
        }
    }
    return all;
}

BufferView
ReplicatedWorkload::output()
{
    BufferView view;
    view.name = "voted";
    view.precision = replicas_[0]->output().precision;
    view.count = voted_.size();
    view.get = [this](std::size_t i) { return voted_[i]; };
    view.set = [this](std::size_t i, std::uint64_t bits) {
        voted_[i] = bits;
    };
    return view;
}

KernelDesc
ReplicatedWorkload::desc() const
{
    return replicas_[0]->desc();
}

WorkloadPtr
makeReplicated(Redundancy scheme, const std::string &name,
               fp::Precision p, double scale)
{
    std::vector<WorkloadPtr> replicas;
    const std::size_t count = scheme == Redundancy::Dwc ? 2 : 3;
    for (std::size_t i = 0; i < count; ++i)
        replicas.push_back(workloads::makeWorkload(name, p, scale));
    return workloads::stamped(
        std::make_unique<ReplicatedWorkload>(scheme, std::move(replicas)),
        scale);
}

} // namespace mparch::mitigation
