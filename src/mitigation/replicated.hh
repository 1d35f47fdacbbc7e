/**
 * @file
 * Modular-redundancy wrappers: DWC and TMR.
 *
 * The paper's discussion (Section 7) motivates mitigation for the
 * precisions whose faults are most critical; this module implements
 * the two classic spatial-redundancy schemes the group studies in
 * companion work:
 *
 *  - DWC (duplication with comparison): two replicas, mismatch =>
 *    detected error (recoverable by re-execution; counted by the
 *    campaigns as Detected, not SDC).
 *  - TMR (triple modular redundancy): three replicas, element-wise
 *    majority vote repairs single-replica corruption; a three-way
 *    disagreement falls back to replica 0 and raises detection.
 *
 * A ReplicatedWorkload is itself a Workload, so every existing
 * campaign runs on it unchanged: an injected fault lands in exactly
 * one replica's buffers or one replica's dynamic operations, exactly
 * like a transient fault in one of N hardware copies.
 */

#ifndef MPARCH_MITIGATION_REPLICATED_HH
#define MPARCH_MITIGATION_REPLICATED_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace mparch::mitigation {

/** Redundancy scheme. */
enum class Redundancy
{
    Dwc,  ///< two replicas, detect on mismatch
    Tmr,  ///< three replicas, majority vote
};

/** Name of a Redundancy ("dwc" / "tmr"). */
constexpr const char *
redundancyName(Redundancy r)
{
    return r == Redundancy::Dwc ? "dwc" : "tmr";
}

/**
 * N-modular-redundant wrapper around identical workload replicas.
 */
class ReplicatedWorkload : public workloads::Workload
{
  public:
    /**
     * @param scheme   DWC (2 replicas) or TMR (3).
     * @param replicas Independently allocated instances of the same
     *                 benchmark (same name, precision, scale).
     */
    ReplicatedWorkload(Redundancy scheme,
                       std::vector<workloads::WorkloadPtr> replicas);

    /** Deep copy: replicas cloned, identity kept. */
    ReplicatedWorkload(const ReplicatedWorkload &other);

    std::string name() const override;
    std::unique_ptr<workloads::Workload> clone() const override;
    fp::Precision precision() const override;
    void reset(std::uint64_t input_seed) override;
    void execute(workloads::ExecutionEnv &env) override;
    std::vector<workloads::BufferView> buffers() override;
    workloads::BufferView output() override;
    workloads::KernelDesc desc() const override;
    bool detectedError() const override { return detected_; }

  private:
    Redundancy scheme_;
    std::vector<workloads::WorkloadPtr> replicas_;
    std::vector<std::uint64_t> voted_;
    bool detected_ = false;
};

/**
 * Convenience factory: wrap @p name at @p p with the given scheme,
 * stamped with its identity (workloads::stamped). Only numeric
 * kernels are supported (CNN severity classification does not
 * compose with voting).
 */
workloads::WorkloadPtr makeReplicated(Redundancy scheme,
                                      const std::string &name,
                                      fp::Precision p,
                                      double scale = 1.0);

} // namespace mparch::mitigation

#endif // MPARCH_MITIGATION_REPLICATED_HH
