#include "arch/fpga/fpga.hh"

#include <algorithm>
#include <cmath>

#include "arch/fpga/params.hh"
#include "metrics/metrics.hh"

namespace mparch::fpga {

using fp::OpKind;
using workloads::Workload;

CircuitReport
synthesize(Workload &w, const fault::GoldenRun &golden)
{
    CircuitReport circuit;
    const fp::Format f = fp::formatOf(w.precision());

    // Engines declared by the workload (per-kind by default; CNNs
    // separate per-layer engines). Dynamic ops per engine determine
    // its share of the PE budget.
    const auto engine_list = w.engines(golden.ops);
    MPARCH_ASSERT(!engine_list.empty(), "workload has no engines");
    std::vector<double> engine_ops;
    double dominant = 0.0;
    for (const auto &engine : engine_list) {
        const double ops =
            static_cast<double>(golden.ops.count(engine.kind)) *
            engine.share();
        engine_ops.push_back(ops);
        dominant = std::max(dominant, ops);
    }
    MPARCH_ASSERT(dominant > 0, "workload executes no FP operations");

    OperatorCost logic;
    double cycles = kFixedCycles;
    for (std::size_t i = 0; i < engine_list.size(); ++i) {
        if (engine_ops[i] <= 0.0)
            continue;
        const auto units = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(
                   static_cast<double>(kPeBudget) * engine_ops[i] /
                   dominant)));
        circuit.engines.push_back({engine_list[i], units});
        logic = logic + operatorCost(engine_list[i].kind, f) *
                            static_cast<double>(units);
        cycles += engine_ops[i] / static_cast<double>(units);
    }

    // On-chip buffers: double-buffered copies of every live array.
    double data_bits = 0.0;
    for (const auto &view : w.buffers())
        data_bits += static_cast<double>(view.bits());
    circuit.bramBits = 2.0 * data_bits;
    circuit.brams = std::ceil(circuit.bramBits / kBramBits);

    circuit.luts = logic.luts + kControlLuts;
    circuit.dsps = logic.dsps;
    circuit.configBits = circuit.luts * kConfigBitsPerLut +
                         circuit.dsps * kConfigBitsPerDsp +
                         circuit.bramBits * kConfigPerBramBit;
    circuit.cycles = cycles;
    return circuit;
}

arch::DeviceEvaluation
evaluateFpga(Workload &w, const arch::DeviceOptions &options)
{
    arch::DeviceEvaluation eval;
    const CircuitReport circuit =
        synthesize(w, *arch::deviceGoldenRun(w, options));

    // Persistent configuration-memory campaign: a config upset breaks
    // one physical operator for the rest of the execution (the run
    // policy reprograms the FPGA after each observed error, so faults
    // never accumulate — matching the paper's procedure).
    arch::runDeviceCampaign(eval, w, fault::CampaignKind::Persistent,
                            options.seed, options, circuit.engines);

    // BRAM content campaign: transient single-bit data flips.
    arch::runDeviceCampaign(eval, w, fault::CampaignKind::Memory,
                            options.seed + 1, options);

    // Exposure inventory. Only config bits over *logic actually
    // toggling* matter for the persistent mechanism; BRAM content is
    // plain SRAM data.
    eval.inventory.node = beam::Node::Fpga28nm;
    eval.inventory.entries = {
        {"config-memory", beam::BitClass::SramConfig,
         circuit.configBits, eval.datapathCampaign.avfSdc(),
         eval.datapathCampaign.avfDue()},
        {"bram-content", beam::BitClass::SramData, circuit.bramBits,
         eval.memoryCampaign.avfSdc(), eval.memoryCampaign.avfDue()},
    };
    eval.fitSdc = eval.inventory.fitSdc();
    eval.fitDue = eval.inventory.fitDue();
    eval.timeSeconds = circuit.cycles / clockHz(w.precision());
    eval.mebf = metrics::mebf(eval.fitSdc, eval.timeSeconds);
    return eval;
}

} // namespace mparch::fpga
