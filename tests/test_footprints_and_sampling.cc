/**
 * @file
 * Tests of the scale-parameterized workload footprints and the
 * interval-sampled measurement pipeline:
 *  - every scale-1 base-footprint program is byte-identical to the
 *    pre-refactor kernels (golden code and data hashes);
 *  - the footprint models land in their regime's byte band, and the
 *    L2-resident mode actually misses L1 on every workload;
 *  - invalid scales are rejected loudly (no silent clamping);
 *  - interval-sampled estimates reproduce the tiled full-detail run
 *    within 2% IPC on all 12 workloads at scale 4 / L2 footprints;
 *  - sampled sweeps are byte-identical serial vs parallel, and fall
 *    back to exact full runs when a program is too short to sample.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sweep/checkpoint.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "sweep/sampling.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace {

/** FNV-1a over every data segment (base + contents). */
std::uint64_t
dataHash(const Program &p)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const void *ptr, size_t n) {
        const auto *c = static_cast<const unsigned char *>(ptr);
        for (size_t i = 0; i < n; ++i)
            h = (h ^ c[i]) * 1099511628211ULL;
    };
    for (const DataSegment &s : p.dataSegments()) {
        mix(&s.base, sizeof(s.base));
        mix(s.bytes.data(), s.bytes.size());
    }
    return h;
}

struct Golden
{
    const char *name;
    std::uint64_t code;
    std::uint64_t data;
};

/** Captured from the pre-refactor kernels (commit 8ed2666): the exact
 *  scale-1 programs every figure in the repo was produced from. */
constexpr Golden goldens[] = {
    {"go", 0x935846b3e5ecd442ULL, 0xd69843b0bb3c28caULL},
    {"m88ksim", 0x1347429214037009ULL, 0x61c6ae2f5a4b6716ULL},
    {"gcc", 0xe78b7e37403d7b75ULL, 0x7ce03052ccd8c784ULL},
    {"compress", 0x7f36f2ed168a7246ULL, 0xc049f78b72fa46caULL},
    {"li", 0xb50d234b70069431ULL, 0x17350d45e8f65ae9ULL},
    {"ijpeg", 0xd346bb05fb1c8a30ULL, 0xff9488976c187f19ULL},
    {"perl", 0x350e35218ad0513cULL, 0x3f8a1c159f308748ULL},
    {"vortex", 0xf0b5b1045b2f6af9ULL, 0x8a401a66ef181c79ULL},
    {"swim", 0xce2e962ebb75fe13ULL, 0xf586ad44fcac0bc0ULL},
    {"applu", 0x03d6d872c6db9569ULL, 0x719f818b60ed097cULL},
    {"turb3d", 0x3d192dc3fc0ec44bULL, 0x516f346288eeda19ULL},
    {"fpppp", 0x923818ed5949bfb2ULL, 0x092c631e6bb269fdULL},
};

TEST(Footprints, ScaleOneBaseProgramsMatchPreRefactorGoldens)
{
    for (const Golden &g : goldens) {
        const Program p = buildWorkload(g.name, 1, Footprint::Base);
        EXPECT_EQ(p.identityHash(), g.code) << g.name;
        EXPECT_EQ(dataHash(p), g.data) << g.name;
    }
}

TEST(Footprints, PlansLandInTheirRegimesByteBand)
{
    const std::size_t kib = 1024;
    for (const WorkloadSpec &w : allWorkloads()) {
        const std::size_t base = w.plan(1, Footprint::Base).totalBytes();
        const std::size_t l2 = w.plan(1, Footprint::L2).totalBytes();
        const std::size_t mem = w.plan(1, Footprint::Mem).totalBytes();
        // Base: the seed kernels' L1-resident arrays (64KB L1D).
        EXPECT_LE(base, 80 * kib) << w.name;
        // L2: past L1D capacity, within the 256KB L2.
        EXPECT_GE(l2, 112 * kib) << w.name;
        EXPECT_LE(l2, 256 * kib) << w.name;
        // Mem: well past L2.
        EXPECT_GE(mem, 768 * kib) << w.name;
        // Extents must not depend on the scale (the scale multiplies
        // dynamic length; the footprint mode sizes the arrays).
        EXPECT_EQ(l2, w.plan(7, Footprint::L2).totalBytes()) << w.name;
    }
}

TEST(Footprints, L2ModeMissesL1OnEveryWorkload)
{
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    for (const WorkloadSpec &w : allWorkloads()) {
        auto missRate = [&](Footprint fp) {
            const Program p = w.instantiate(1, fp);
            const SimResult r = simulate(cfg, p, 200'000'000);
            EXPECT_TRUE(r.finished && r.verified)
                << w.name << "/" << footprintName(fp);
            return r.l1d.accesses() == 0
                       ? 0.0
                       : double(r.l1d.readMisses + r.l1d.writeMisses) /
                             double(r.l1d.accesses());
        };
        const double base = missRate(Footprint::Base);
        const double l2 = missRate(Footprint::L2);
        // Floor: the grown working set must genuinely stream through
        // L1 — at least 4% of L1D accesses miss, and clearly more
        // than the L1-resident base kernel misses.
        EXPECT_GE(l2, 0.04) << w.name;
        EXPECT_GE(l2, base * 1.25) << w.name;
    }
}

TEST(Footprints, InvalidScaleIsFatalNotClamped)
{
    EXPECT_EXIT(buildWorkload("go", 0),
                ::testing::ExitedWithCode(1), "invalid scale 0");
    EXPECT_EXIT(allWorkloads().front().instantiate(0),
                ::testing::ExitedWithCode(1), "invalid scale 0");
}

TEST(Footprints, DescribeFootprintNamesDominantExtents)
{
    const WorkloadSpec *go = findWorkload("go");
    ASSERT_NE(go, nullptr);
    const std::string d = describeFootprint(*go, 1, Footprint::L2);
    EXPECT_NE(d.find("board"), std::string::npos) << d;
    EXPECT_NE(d.find("KiB"), std::string::npos) << d;
}

TEST(Footprints, UnknownFootprintNameIsFatal)
{
    EXPECT_EXIT(parseFootprint("l3"), ::testing::ExitedWithCode(1),
                "unknown footprint mode");
}

// --- interval sampling ----------------------------------------------

TEST(Sampling, EstimateMatchesTiledFullRunWithinTwoPercent)
{
    // The acceptance bar: at scale >= 4 with L2-resident footprints,
    // a 10-sample x 20k-inst estimate must reproduce the IPC of the
    // full-detail run — every instruction simulated, tiled from the
    // same snapshots so both share the measurement-boundary
    // discipline — within 2% on every workload, while measuring a
    // fraction of the instructions.
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    for (const WorkloadSpec &w : allWorkloads()) {
        Program prog = w.instantiate(4, Footprint::L2);
        prog.predecodeAll();

        sweep::SamplePlan plan;
        plan.samples = 10;
        plan.measureInsts = 20'000;
        plan.warmupInsts = 10'000;
        const sweep::SampleSet set =
            sweep::captureSamples(cfg, prog, plan, 200'000'000);
        ASSERT_TRUE(set.usable()) << w.name;
        EXPECT_EQ(set.samples.front().startInst, 0u);
        EXPECT_EQ(set.samples.front().regionInsts,
                  set.samples.front().measureInsts); // exact cold region

        std::vector<SimResult> est, full;
        std::uint64_t measured = 0;
        for (const sweep::SampleCheckpoint &sc : set.samples) {
            auto fork = [&](std::uint64_t insts) {
                Simulator sim(cfg, prog);
                if (!sc.bytes.empty())
                    EXPECT_TRUE(
                        sweep::Checkpoint::restore(sim, sc.bytes));
                return sim.runInsts(insts, 200'000'000);
            };
            est.push_back(fork(sc.measureInsts));
            full.push_back(fork(sc.regionInsts));
            measured += est.back().core.committedInsts;
        }
        const SimResult e = sweep::aggregateSamples(set, est);
        const SimResult f = sweep::aggregateSamples(set, full);
        EXPECT_NEAR(e.ipc, f.ipc, f.ipc * 0.02) << w.name;
        // The estimate must be an estimate: for runs long enough to
        // sample, it measures fewer instructions than the full run.
        if (set.totalInsts > 300'000)
            EXPECT_LT(measured, set.totalInsts) << w.name;
    }
}

TEST(Sampling, SampledSweepSerialEqualsParallelByteForByte)
{
    sweep::PlanOptions popt;
    popt.scale = 4;
    popt.footprint = Footprint::L2;
    popt.quick = true;
    const sweep::SweepPlan plan = sweep::buildPlan("fig13", popt);

    sweep::ExecOptions eopt;
    eopt.sample.samples = 3;
    eopt.sample.measureInsts = 20'000;

    eopt.jobs = 1;
    const auto serial = sweep::runPlan(plan, eopt);
    eopt.jobs = 4;
    const auto parallel = sweep::runPlan(plan, eopt);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &o : serial)
        EXPECT_GT(o.samples, 0u);
    EXPECT_EQ(sweep::resultsJson(serial), sweep::resultsJson(parallel));
}

TEST(Sampling, TooShortProgramsFallBackToExactFullRuns)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    sweep::SweepPlan plan = sweep::buildPlan("fig13", popt);
    plan.jobs.resize(1); // one workload is enough

    sweep::ExecOptions plain;
    const auto exact = sweep::runPlan(plan, plain);

    sweep::ExecOptions sampled = plain;
    sampled.sample.samples = 4;
    // A warm-up longer than the whole program leaves no room for a
    // single warm sample.
    sampled.warmupInsts = 1'000'000'000;
    const auto fallback = sweep::runPlan(plan, sampled);

    ASSERT_EQ(exact.size(), fallback.size());
    EXPECT_EQ(fallback[0].samples, 0u);
    EXPECT_EQ(exact[0].res.cycles, fallback[0].res.cycles);
    EXPECT_EQ(exact[0].res.insts, fallback[0].res.insts);
    EXPECT_EQ(exact[0].commitHash, fallback[0].commitHash);
}

TEST(Sampling, AggregationWeightsAreExactForIdentityScaling)
{
    // w == m means "scaled by one": aggregating one full-coverage
    // sample must reproduce its input exactly.
    sweep::SampleSet set;
    set.totalInsts = 1000;
    sweep::SampleCheckpoint sc;
    sc.regionInsts = 1000;
    sc.measureInsts = 1000;
    set.samples.push_back(sc);
    set.samples.push_back(sc); // usable() needs a warm sample

    SimResult r;
    r.core.committedInsts = 1000;
    r.core.cycles = 400;
    r.l1d.readMisses = 37;
    SimResult zero;
    zero.core.committedInsts = 0; // dropped from the fold
    const SimResult agg =
        sweep::aggregateSamples(set, {r, zero});
    EXPECT_EQ(agg.core.cycles, 400u);
    EXPECT_EQ(agg.insts, 1000u);
    EXPECT_EQ(agg.l1d.readMisses, 37u);
    EXPECT_DOUBLE_EQ(agg.ipc, 2.5);
}

TEST(Sampling, PlanRegistryListsHeadlineGrid)
{
    EXPECT_TRUE(sweep::havePlan("headline"));
    const auto grid = sweep::figureGrid("headline");
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0].key(), "4w-1pV");
    EXPECT_EQ(grid[3].key(), "8w-4pnoIM");
}

} // namespace
} // namespace sdv
