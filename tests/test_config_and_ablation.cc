/**
 * @file
 * Tests of the configuration presets (Table 1) and of the mechanism's
 * behaviour under resource ablation: shrinking the vector register
 * file, changing the vector length or the confidence threshold must
 * degrade gracefully and never break correctness.
 */

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace {

TEST(Config, Table1FourWay)
{
    const CoreConfig c = makeConfig(4, 1, BusMode::WideBusSdv);
    EXPECT_EQ(c.fetchWidth, 4u);
    EXPECT_EQ(c.robEntries, 128u);
    EXPECT_EQ(c.lsqEntries, 32u);
    EXPECT_EQ(c.fu.intAlu, 3u);
    EXPECT_EQ(c.fu.intMulDiv, 2u);
    EXPECT_EQ(c.fu.fpAdd, 2u);
    EXPECT_EQ(c.fu.fpMulDiv, 1u);
    EXPECT_EQ(c.maxStoresPerCycle, 2u);
    EXPECT_EQ(c.gshareEntries, 64u * 1024u);
    EXPECT_EQ(c.engine.numVregs, 128u);
    EXPECT_EQ(c.engine.vlen, 4u);
    EXPECT_EQ(c.engine.tlSets, 512u);
    EXPECT_EQ(c.engine.vrmtSets, 64u);
    EXPECT_TRUE(c.widePorts);
    EXPECT_TRUE(c.engine.enabled);
}

TEST(Config, Table1EightWay)
{
    const CoreConfig c = makeConfig(8, 2, BusMode::WideBus);
    EXPECT_EQ(c.fetchWidth, 8u);
    EXPECT_EQ(c.robEntries, 256u);
    EXPECT_EQ(c.lsqEntries, 64u);
    EXPECT_EQ(c.fu.intAlu, 6u);
    EXPECT_EQ(c.fu.fpAdd, 4u);
    EXPECT_EQ(c.dcachePorts, 2u);
    EXPECT_TRUE(c.widePorts);
    EXPECT_FALSE(c.engine.enabled);
}

TEST(Config, ScalarBusDisablesWidePortsAndEngine)
{
    const CoreConfig c = makeConfig(4, 4, BusMode::ScalarBus);
    EXPECT_FALSE(c.widePorts);
    EXPECT_FALSE(c.engine.enabled);
    EXPECT_EQ(c.dcachePorts, 4u);
}

TEST(Config, LabelsMatchPaper)
{
    EXPECT_EQ(configLabel(1, BusMode::ScalarBus), "1pnoIM");
    EXPECT_EQ(configLabel(2, BusMode::WideBus), "2pIM");
    EXPECT_EQ(configLabel(4, BusMode::WideBusSdv), "4pV");
}

TEST(Config, StorageCostMatchesSection41)
{
    const StorageCost cost =
        storageCost(makeConfig(4, 1, BusMode::WideBusSdv));
    EXPECT_EQ(cost.vectorRegisterFileBytes, 4096u);
    EXPECT_EQ(cost.vrmtBytes, 4608u);
    EXPECT_EQ(cost.tlBytes, 49152u);
    EXPECT_EQ(cost.totalBytes(), 57856u); // "~56KB"
}

TEST(Config, Fig10WindowDefaultsToThePapersHundred)
{
    // The post-mispredict measurement window (Figure 10) is a config
    // knob with the paper's value as default; an explicit 100 must
    // reproduce the default's statistics exactly.
    const Program prog = buildWorkload("go", 1);
    const CoreConfig base = makeConfig(4, 1, BusMode::WideBusSdv);
    ASSERT_EQ(base.fig10WindowInsts, 100u);

    CoreConfig explicit100 = base;
    explicit100.fig10WindowInsts = 100;
    const SimResult a = simulate(base, prog, 50'000'000, false);
    const SimResult b = simulate(explicit100, prog, 50'000'000, false);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.core.postMispredictWindowInsts,
              b.core.postMispredictWindowInsts);
    EXPECT_EQ(a.core.postMispredictReused, b.core.postMispredictReused);
    EXPECT_DOUBLE_EQ(a.controlIndependenceFraction(),
                     b.controlIndependenceFraction());
}

TEST(Config, Fig10WindowIsAblatable)
{
    // Shrinking the window must not change the timing model, only the
    // Figure 10 measurement: fewer instructions are counted per
    // mispredict, and never more than window * mispredicts.
    const Program prog = buildWorkload("go", 1);
    const CoreConfig base = makeConfig(4, 1, BusMode::WideBusSdv);
    CoreConfig narrow = base;
    narrow.fig10WindowInsts = 10;
    const SimResult a = simulate(base, prog, 50'000'000, false);
    const SimResult b = simulate(narrow, prog, 50'000'000, false);
    // Measurement only, no timing effect.
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    ASSERT_GT(a.core.branchMispredicts, 0u);
    EXPECT_GT(a.core.postMispredictWindowInsts,
              b.core.postMispredictWindowInsts);
    EXPECT_LE(b.core.postMispredictWindowInsts,
              10u * b.core.branchMispredicts);
}

std::deque<Program> &
keeper()
{
    static std::deque<Program> progs;
    return progs;
}

/** Ablation sweeps must stay correct (verified) on a real workload. */
class AblationSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(AblationSweep, ShrunkResourcesStayCorrect)
{
    const auto [vregs, vlen] = GetParam();
    keeper().push_back(buildWorkload("m88ksim", 1));
    const Program &prog = keeper().back();

    CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    cfg.engine.numVregs = vregs;
    cfg.engine.vlen = vlen;
    const SimResult r = simulate(cfg, prog);
    ASSERT_TRUE(r.finished);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.engine.validationValueMismatches, 0u);
    if (vregs >= 16)
        EXPECT_GT(r.core.committedValidations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AblationSweep,
    ::testing::Combine(::testing::Values(8u, 32u, 128u),
                       ::testing::Values(2u, 4u, 8u)));

TEST(Ablation, MoreVregsNeverHurtMuch)
{
    keeper().push_back(buildWorkload("swim", 1));
    const Program &prog = keeper().back();
    CoreConfig small = makeConfig(4, 1, BusMode::WideBusSdv);
    small.engine.numVregs = 8;
    CoreConfig large = makeConfig(4, 1, BusMode::WideBusSdv);
    const SimResult rs = simulate(small, prog, 50'000'000, false);
    const SimResult rl = simulate(large, prog, 50'000'000, false);
    EXPECT_LE(double(rl.core.cycles), double(rs.core.cycles) * 1.02);
}

TEST(Ablation, ConfidenceOneSpawnsMoreAggressively)
{
    // A lower confidence threshold detects patterns after a single
    // stride repeat, so more speculative element loads are issued
    // overall (hit or miss).
    keeper().push_back(buildWorkload("go", 1));
    const Program &prog = keeper().back();
    CoreConfig eager = makeConfig(4, 1, BusMode::WideBusSdv);
    eager.engine.tlConfidence = 1;
    CoreConfig paper = makeConfig(4, 1, BusMode::WideBusSdv);
    const SimResult re = simulate(eager, prog, 50'000'000, false);
    const SimResult rp = simulate(paper, prog, 50'000'000, false);
    const auto issued = [](const SimResult &r) {
        return r.datapath.elemLoadAccessesIssued +
               r.datapath.elemLoadsRideAlong;
    };
    EXPECT_GT(issued(re), issued(rp));
    EXPECT_TRUE(re.finished && rp.finished);
}

TEST(Ablation, StoreSquashesValidationsOfKilledRegisters)
{
    // A committing store must squash every younger validation of an
    // overlapping register, even one killed before the store: the
    // validation was decoded against the pre-store value. At TL
    // confidence 1, m88ksim's stride-0 counter load hits that case; a
    // missed squash commits the stale element as a value mismatch.
    keeper().push_back(buildWorkload("m88ksim", 1, Footprint::L2));
    const Program &prog = keeper().back();
    CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    cfg.engine.tlConfidence = 1;
    for (const bool traceExec : {true, false}) {
        SCOPED_TRACE(traceExec ? "trace" : "interpreter");
        cfg.traceExec = traceExec;
        const SimResult r = simulate(cfg, prog);
        ASSERT_TRUE(r.finished);
        EXPECT_TRUE(r.verified);
        EXPECT_GT(r.engine.storeRangeConflicts, 0u);
        EXPECT_EQ(r.engine.validationValueMismatches, 0u);
    }
}

TEST(Ablation, DisabledEngineProducesNoVectorActivity)
{
    keeper().push_back(buildWorkload("li", 1));
    const Program &prog = keeper().back();
    const SimResult r =
        simulate(makeConfig(4, 1, BusMode::WideBus), prog);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.core.committedValidations, 0u);
    EXPECT_EQ(r.engine.loadSpawns, 0u);
    EXPECT_EQ(r.datapath.instancesSpawned, 0u);
    EXPECT_EQ(r.fates.regsReleased, 0u);
}

} // namespace
} // namespace sdv
