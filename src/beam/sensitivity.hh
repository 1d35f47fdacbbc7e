/**
 * @file
 * Per-bit neutron sensitivities by resource class and process node.
 *
 * Real per-bit cross-sections are business-sensitive (the paper only
 * reports FIT in arbitrary units for exactly this reason); the values
 * below are order-of-magnitude placeholders in arbitrary units that
 * preserve the *relative* sensitivities that matter for the study:
 * SRAM configuration bits are the most sensitive FPGA resource,
 * latch/flip-flop datapath state is a few times less sensitive than
 * SRAM, and newer nodes (GPU 12nm) have somewhat smaller per-bit
 * cross sections than older ones (FPGA 28nm, Phi 22nm). All FIT
 * outputs derived from these are labelled a.u., as in the paper.
 */

#ifndef MPARCH_BEAM_SENSITIVITY_HH
#define MPARCH_BEAM_SENSITIVITY_HH

namespace mparch::beam {

/** Classes of physical state a neutron can upset. */
enum class BitClass
{
    SramConfig,   ///< FPGA configuration memory cell
    SramData,     ///< cache / BRAM / register-file SRAM cell
    DatapathLatch,///< pipeline latch inside a functional unit
    ControlLatch, ///< scheduler / sequencer / lane-control state
};

/** Process node of a device under test. */
enum class Node { Fpga28nm, Phi22nm, Gpu12nm };

/**
 * Per-bit upset sensitivity in arbitrary units.
 *
 * Relative magnitudes follow the SRAM-vs-latch and node-scaling
 * relationships discussed in Baumann's survey [34] and the JEDEC
 * JESD89A methodology the paper's facility follows.
 */
constexpr double
bitSensitivity(Node node, BitClass c)
{
    // Node scale factors (a.u. per bit).
    const double node_scale =
        node == Node::Fpga28nm ? 1.0 :
        node == Node::Phi22nm  ? 0.85 : 0.6;
    const double class_scale =
        c == BitClass::SramConfig    ? 1.0 :
        c == BitClass::SramData      ? 0.9 :
        c == BitClass::DatapathLatch ? 0.35 : 0.45;
    return node_scale * class_scale;
}

} // namespace mparch::beam

#endif // MPARCH_BEAM_SENSITIVITY_HH
