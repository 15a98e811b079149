/**
 * @file
 * Tests of the scale-parameterized workload footprints and the
 * interval-sampled measurement pipeline:
 *  - the programs are byte-identical to pinned golden code and data
 *    hashes: every scale-1 base program, every grown (l2, mem) program
 *    at scale 4, the timing-channel pair and two fuzzed kernels;
 *  - the recorded allocations land in their regime's byte band,
 *    describeFootprint names each program's largest one, and the
 *    L2-resident mode actually misses L1 on every workload;
 *  - invalid scales, zero or too large for a loop counter, are
 *    rejected loudly (no silent clamping or wrapping);
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

/** One instantiation's pinned code and data hashes. */
struct InstanceGolden
{
    const char *name;
    Footprint fp;
    unsigned scale;
    std::uint64_t fuzzSeed;
    std::uint64_t code;
    std::uint64_t data;
};

/** Captured from commit 5435f2b, before the footprint models merged
 *  into the builders: every workload at scale 4 under l2 and mem, the
 *  timing-channel pair at scale 4 in every mode, and one integer and
 *  one FP kernel at fuzz seed 1. */
constexpr InstanceGolden instanceGoldens[] = {
    {"go", Footprint::L2, 4, 0, 0x796fce497a4ae0c5ULL,
     0x0c0a259b8f9edad8ULL},
    {"go", Footprint::Mem, 4, 0, 0xa6cd61a3178f3574ULL,
     0xc0bddece457482d7ULL},
    {"m88ksim", Footprint::L2, 4, 0, 0x70c6ab5cc23c5314ULL,
     0xf5594d316a7f3c3eULL},
    {"m88ksim", Footprint::Mem, 4, 0, 0xa3752126c9a6ef90ULL,
     0xece5dc557b729be3ULL},
    {"gcc", Footprint::L2, 4, 0, 0x06281968241a7037ULL,
     0x9553d929c7f8b359ULL},
    {"gcc", Footprint::Mem, 4, 0, 0x36c79900a40e2351ULL,
     0xbf61967d05f753e2ULL},
    {"compress", Footprint::L2, 4, 0, 0x3b94c1ece362339fULL,
     0xcf8dc2ffc3cbd319ULL},
    {"compress", Footprint::Mem, 4, 0, 0xe13a4ed9c3fec22cULL,
     0xe27c0c4d5402bd79ULL},
    {"li", Footprint::L2, 4, 0, 0xa2a84db9cf8988bdULL,
     0x9b37b4dba052d4c0ULL},
    {"li", Footprint::Mem, 4, 0, 0x808212fbe62bc173ULL,
     0xe7dc03b386ae6babULL},
    {"ijpeg", Footprint::L2, 4, 0, 0x9d43d3cfbcbc3f06ULL,
     0xb415fdda0948cabdULL},
    {"ijpeg", Footprint::Mem, 4, 0, 0x0ddd5a6ff56e6007ULL,
     0xfdb1810548d29fcfULL},
    {"perl", Footprint::L2, 4, 0, 0xf5cd40113495c454ULL,
     0x9fc9ea9777779be9ULL},
    {"perl", Footprint::Mem, 4, 0, 0xc3afc45347c8b242ULL,
     0x5832c9178fe9793fULL},
    {"vortex", Footprint::L2, 4, 0, 0xf1d59781c53ad29cULL,
     0x908d45a20ce26ae8ULL},
    {"vortex", Footprint::Mem, 4, 0, 0xac1ec285f6fda924ULL,
     0xb91c2665576496e4ULL},
    {"swim", Footprint::L2, 4, 0, 0xa2bc9c0a852c3634ULL,
     0xe7bc8feb6a10ea21ULL},
    {"swim", Footprint::Mem, 4, 0, 0xc7842785a8c6897eULL,
     0xb4342b65bc6980e5ULL},
    {"applu", Footprint::L2, 4, 0, 0x1eb5f1c1540244aaULL,
     0x3b6af1ab343df1a6ULL},
    {"applu", Footprint::Mem, 4, 0, 0x677d96806cecdfdfULL,
     0xf5012fea0cdfcef0ULL},
    {"turb3d", Footprint::L2, 4, 0, 0x8eb0fe6a4ae778dcULL,
     0xc68a11f6ee6e8fb5ULL},
    {"turb3d", Footprint::Mem, 4, 0, 0xb0aead1bdf067475ULL,
     0x37295e08f3834bb7ULL},
    {"fpppp", Footprint::L2, 4, 0, 0x29bf539212c9738eULL,
     0x08fe3739d7e28620ULL},
    {"fpppp", Footprint::Mem, 4, 0, 0x1ebc22ae5578a1ceULL,
     0x671e8f8955d07147ULL},
    {"tc_victim", Footprint::Base, 4, 0, 0xc940de1b306bf210ULL,
     0x13c204bcc2566d9aULL},
    {"tc_victim", Footprint::L2, 4, 0, 0x8a2932ef26838fd7ULL,
     0xec3f7cd03b36b7c4ULL},
    {"tc_victim", Footprint::Mem, 4, 0, 0xd955f828da97c54fULL,
     0x6a0cb6852faaab18ULL},
    {"tc_attack", Footprint::Base, 4, 0, 0x14e387047cd7c67eULL,
     0xfdef1656a59d9743ULL},
    {"tc_attack", Footprint::L2, 4, 0, 0x05430bbeb7051791ULL,
     0xaeeec552689a0748ULL},
    {"tc_attack", Footprint::Mem, 4, 0, 0x29a55d7d62f0a589ULL,
     0xdf03ae71bacec4a1ULL},
    {"go", Footprint::Base, 1, 1, 0x05af4cf27d63d3e3ULL,
     0x35af81c563faad5eULL},
    {"swim", Footprint::Base, 1, 1, 0xce2e962ebb75fe13ULL,
     0x396be70fe54da2acULL},
};

TEST(Footprints, GrownAttackAndFuzzedProgramsMatchGoldens)
{
    for (const InstanceGolden &g : instanceGoldens) {
        const Program p = buildWorkload(g.name, g.scale, g.fp, g.fuzzSeed);
        EXPECT_EQ(p.identityHash(), g.code)
            << g.name << "/" << footprintName(g.fp) << " seed "
            << g.fuzzSeed;
        EXPECT_EQ(dataHash(p), g.data)
            << g.name << "/" << footprintName(g.fp) << " seed "
            << g.fuzzSeed;
    }
}

/** @return the bytes @p p allocates, read from its allocation record. */
std::size_t
allocatedBytes(const Program &p)
{
    std::size_t bytes = 0;
    for (const DataAllocation &a : p.allocations())
        bytes += a.bytes;
    return bytes;
}

TEST(Footprints, AllocationsLandInTheirRegimesByteBand)
{
    const std::size_t kib = 1024;
    for (const Workload &w : allWorkloads()) {
        const std::size_t base =
            allocatedBytes(w.instantiate(1, Footprint::Base));
        const std::size_t l2 = allocatedBytes(w.instantiate(1, Footprint::L2));
        const std::size_t mem =
            allocatedBytes(w.instantiate(1, Footprint::Mem));
        // Base: the seed kernels' L1-resident arrays (64KB L1D).
        EXPECT_LE(base, 80 * kib) << w.name;
        // L2: past L1D capacity, within the 256KB L2.
        EXPECT_GE(l2, 112 * kib) << w.name;
        EXPECT_LE(l2, 256 * kib) << w.name;
        // Mem: well past L2.
        EXPECT_GE(mem, 768 * kib) << w.name;
        // Extents must not depend on the scale (the scale multiplies
        // dynamic length; the footprint mode sizes the arrays).
        EXPECT_EQ(l2, allocatedBytes(w.instantiate(7, Footprint::L2)))
            << w.name;
    }
}

TEST(Footprints, L2ModeMissesL1OnEveryWorkload)
{
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    for (const Workload &w : allWorkloads()) {
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

TEST(Footprints, ScaleBeyondALoopCounterIsFatalNotWrapped)
{
    // 24 passes x 178956971 is 2^32 + 8: a 32-bit cast would build an
    // 8-pass ijpeg. 1400 iterations x 1533917 just passes INT32_MAX, as
    // 2200 x 976129 does for fpppp, the first workload to overflow.
    EXPECT_EXIT(buildWorkload("ijpeg", 178956971),
                ::testing::ExitedWithCode(1),
                "workload 'ijpeg': --scale 178956971");
    EXPECT_EXIT(buildWorkload("go", 1533917), ::testing::ExitedWithCode(1),
                "workload 'go': --scale 1533917");
    EXPECT_EXIT(buildWorkload("fpppp", 976129),
                ::testing::ExitedWithCode(1),
                "workload 'fpppp': --scale 976129");
    // One step below, the counts still fit and the kernels build.
    EXPECT_GT(buildWorkload("go", 1533916).numInsts(), 0u);
    EXPECT_GT(buildWorkload("fpppp", 976128).numInsts(), 0u);
    EXPECT_GT(buildWorkload("ijpeg", 89478485).numInsts(), 0u);
}

TEST(Footprints, DescribeFootprintNamesDominantExtents)
{
    // Exact descriptions, captured from the plan-based describeFootprint
    // at commit 5435f2b, pin the byte figures and the units (KiB, B, MiB)
    // against values the allocation record did not compute. ijpeg's
    // equal image and out keep their allocation order.
    struct Pinned
    {
        const char *name;
        Footprint fp;
        const char *text;
    };
    const Pinned pinned[] = {
        {"go", Footprint::L2,
         "128.8 KiB (board 128.0 KiB, weights 512 B, frame 256 B, ...)"},
        {"fpppp", Footprint::Base, "320 B (work 256 B, result 64 B)"},
        {"turb3d", Footprint::Mem,
         "2.0 MiB (sig 1.0 MiB, outbuf 1.0 MiB, twiddle 32 B)"},
        {"ijpeg", Footprint::L2,
         "144.3 KiB (image 72.0 KiB, out 72.0 KiB, frame 256 B, ...)"},
    };
    for (const Pinned &p : pinned) {
        const Workload *w = findWorkload(p.name);
        ASSERT_NE(w, nullptr) << p.name;
        EXPECT_EQ(describeFootprint(*w, 1, p.fp), p.text) << p.name;
    }

    // Every workload in every mode: the largest allocation (the first
    // of equal ones) leads the description.
    for (const auto *suite : {&allWorkloads(), &attackWorkloads()})
        for (const Workload &w : *suite)
            for (Footprint fp :
                 {Footprint::Base, Footprint::L2, Footprint::Mem}) {
                const Program p = w.instantiate(1, fp);
                const DataAllocation *largest = nullptr;
                for (const DataAllocation &a : p.allocations())
                    if (!largest || a.bytes > largest->bytes)
                        largest = &a;
                ASSERT_NE(largest, nullptr) << w.name;
                const std::string d = describeFootprint(w, 1, fp);
                EXPECT_NE(d.find("(" + largest->name + " "),
                          std::string::npos)
                    << w.name << "/" << footprintName(fp) << ": " << d;
            }
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
    for (const Workload &w : allWorkloads()) {
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
        EXPECT_NEAR(e.core.ipc(), f.core.ipc(), f.core.ipc() * 0.02) << w.name;
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
    EXPECT_EQ(exact[0].res.core.cycles, fallback[0].res.core.cycles);
    EXPECT_EQ(exact[0].res.core.committedInsts,
              fallback[0].res.core.committedInsts);
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
    EXPECT_EQ(agg.core.committedInsts, 1000u);
    EXPECT_EQ(agg.l1d.readMisses, 37u);
    EXPECT_DOUBLE_EQ(agg.core.ipc(), 2.5);
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
