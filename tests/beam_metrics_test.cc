/**
 * @file
 * Tests for the virtual beam engine and the metrics layer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "beam/virtual_beam.hh"
#include "metrics/metrics.hh"

namespace mparch {
namespace {

using beam::BeamOutcome;
using beam::BitClass;
using beam::Node;
using beam::ResourceInventory;

ResourceInventory
demoInventory()
{
    ResourceInventory inv;
    inv.node = Node::Gpu12nm;
    inv.entries = {
        {"datapath", BitClass::DatapathLatch, 1e6, 0.4, 0.02},
        {"sram", BitClass::SramData, 2e6, 0.3, 0.0},
        {"control", BitClass::ControlLatch, 1e5, 0.0, 0.5},
    };
    return inv;
}

TEST(Sensitivity, RelativeOrdering)
{
    // SRAM is the most sensitive class; newer nodes are less
    // sensitive per bit.
    EXPECT_GT(bitSensitivity(Node::Fpga28nm, BitClass::SramConfig),
              bitSensitivity(Node::Fpga28nm, BitClass::DatapathLatch));
    EXPECT_GT(bitSensitivity(Node::Fpga28nm, BitClass::SramData),
              bitSensitivity(Node::Gpu12nm, BitClass::SramData));
    for (auto node : {Node::Fpga28nm, Node::Phi22nm, Node::Gpu12nm})
        for (auto c : {BitClass::SramConfig, BitClass::SramData,
                       BitClass::DatapathLatch,
                       BitClass::ControlLatch})
            EXPECT_GT(bitSensitivity(node, c), 0.0);
}

TEST(Inventory, AnalyticFitComposition)
{
    const ResourceInventory inv = demoInventory();
    // fitSdc must equal the manual sum.
    double expect_sdc = 0.0, expect_due = 0.0, expect_rate = 0.0;
    for (const auto &e : inv.entries) {
        const double s = bitSensitivity(inv.node, e.bitClass);
        expect_sdc += e.bits * s * e.avfSdc;
        expect_due += e.bits * s * e.avfDue;
        expect_rate += e.bits * s;
    }
    EXPECT_DOUBLE_EQ(inv.fitSdc(), expect_sdc);
    EXPECT_DOUBLE_EQ(inv.fitDue(), expect_due);
    EXPECT_DOUBLE_EQ(inv.rawRate(), expect_rate);
    EXPECT_GT(inv.fitSdc(), 0.0);
}

TEST(VirtualBeam, MonteCarloMatchesAnalyticFit)
{
    // The MC beam campaign with AVF-resolved outcomes must converge
    // to the analytic estimator (the validation the design leans on).
    const ResourceInventory inv = demoInventory();
    Rng rng(17);
    const double fluence = 2000.0 / inv.rawRate();  // ~2000 faults
    const auto result = beam::runBeam(inv, fluence, rng);
    EXPECT_GT(result.faults, 1000u);
    EXPECT_NEAR(result.fitSdc() / inv.fitSdc(), 1.0, 0.15);
    EXPECT_NEAR(result.fitDue() / inv.fitDue(), 1.0, 0.30);
    EXPECT_TRUE(result.fitSdc95().contains(result.fitSdc()));
}

TEST(VirtualBeam, ResolverModeDrivesOutcomes)
{
    ResourceInventory inv;
    inv.entries = {{"only", BitClass::SramData, 1000.0, 0.0, 0.0}};
    Rng rng(3);
    std::size_t calls = 0;
    const auto resolver = [&calls](std::size_t index, Rng &) {
        EXPECT_EQ(index, 0u);
        ++calls;
        return BeamOutcome::Sdc;
    };
    const auto result =
        beam::runBeam(inv, 0.5 / inv.rawRate() * 100.0, rng, resolver);
    EXPECT_EQ(calls, result.faults);
    EXPECT_EQ(result.sdc, result.faults);
}

TEST(VirtualBeam, ZeroRateProducesNoFaults)
{
    ResourceInventory inv;
    Rng rng(4);
    const auto result = beam::runBeam(inv, 100.0, rng);
    EXPECT_EQ(result.faults, 0u);
    EXPECT_EQ(result.fitSdc(), 0.0);
}

TEST(Metrics, MebfBasics)
{
    EXPECT_DOUBLE_EQ(metrics::mebf(2.0, 0.5), 1.0);
    EXPECT_GT(metrics::mebf(1.0, 0.1), metrics::mebf(1.0, 0.2));
    EXPECT_GT(metrics::mebf(1.0, 0.1), metrics::mebf(2.0, 0.1));
    EXPECT_DOUBLE_EQ(metrics::mebf(0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(metrics::mebf(1.0, 0.0), 0.0);
}

TEST(Metrics, TreCurveFromCorpus)
{
    fault::CampaignResult r;
    r.trials = 10;
    r.sdc = 4;
    r.corpus = {{1e-5, 0.1, workloads::SdcSeverity::Tolerable},
                {1e-3, 0.1, workloads::SdcSeverity::Tolerable},
                {1e-2, 0.1, workloads::SdcSeverity::DetectionChange},
                {1.0, 0.1, workloads::SdcSeverity::CriticalChange}};
    const auto curve = metrics::treCurve(r);
    ASSERT_EQ(curve.thresholds.size(), metrics::kTreThresholds.size());
    EXPECT_DOUBLE_EQ(curve.remaining.front(), 1.0);
    // At TRE = 1e-4 only three of four deviations survive.
    EXPECT_DOUBLE_EQ(curve.remaining[1], 0.75);
    // Monotone non-increasing.
    for (std::size_t i = 1; i < curve.remaining.size(); ++i)
        EXPECT_LE(curve.remaining[i], curve.remaining[i - 1]);
    // The same corpus's severity split sums to one.
    using workloads::SdcSeverity;
    EXPECT_DOUBLE_EQ(r.severityFraction(SdcSeverity::Tolerable), 0.5);
    EXPECT_DOUBLE_EQ(r.severityFraction(SdcSeverity::DetectionChange),
                     0.25);
    EXPECT_DOUBLE_EQ(r.severityFraction(SdcSeverity::CriticalChange),
                     0.25);
}

} // namespace
} // namespace mparch
