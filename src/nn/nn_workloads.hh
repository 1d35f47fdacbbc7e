/**
 * @file
 * Workload adapters for the CNN benchmarks (MNIST-like classifier and
 * the YOLite detector), so the fault-injection campaigns and the
 * architecture models drive them exactly like the numeric kernels.
 *
 * SDC severity semantics follow the paper:
 *  - MNIST (Figure 3): Tolerable = output corrupted, classification
 *    intact; CriticalChange = classification flipped.
 *  - YOLO (Figure 11c): Tolerable; DetectionChange = boxes appear,
 *    vanish or move; CriticalChange = a detected object's class flips.
 */

#ifndef MPARCH_NN_NN_WORKLOADS_HH
#define MPARCH_NN_NN_WORKLOADS_HH

#include <memory>
#include <string>
#include <string_view>

#include "workloads/workload.hh"

namespace mparch::nn {

/**
 * The trained classifier weights used by every MNIST workload
 * instance: trainMnist(TrainConfig{})'s result, committed as the
 * generated table src/nn/mnist_weights.cc (no training at run time).
 */
const struct MnistParams &pretrainedMnist();

/**
 * The factory makeAnyWorkload() dispatches @p name to; null for an
 * unknown name.
 */
workloads::WorkloadMaker findAnyWorkload(std::string_view name);

/**
 * Empty when makeAnyWorkload() knows @p name, otherwise the message
 * "unknown workload '<name>'" (front ends report it as a usage error).
 */
std::string workloadNameError(const std::string &name);

/**
 * Factory covering both numeric and CNN benchmarks, stamped with
 * their identity (workloads::stamped); fatal() on an unknown name.
 * The CNN names are "mnist" (classifier, batch of 4 digits per
 * execution) and "yolite" (detector, batch of 2 scenes), where
 * @p scale is the batch-size knob (1.0 = default batch).
 */
workloads::WorkloadPtr makeAnyWorkload(const std::string &name,
                                       fp::Precision p,
                                       double scale = 1.0);

} // namespace mparch::nn

#endif // MPARCH_NN_NN_WORKLOADS_HH
