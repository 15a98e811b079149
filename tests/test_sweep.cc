/**
 * @file
 * Tests of the sweep subsystem: checkpoint capture/restore bit-identity
 * (restore-then-run equals warmup-then-continue on every tier-1
 * workload, statistics and commit hashes included), corrupted /
 * truncated snapshot rejection, cross-configuration restores, the plan
 * registry, executor determinism (parallel == serial, checkpointed or
 * not) and the snapshot store behind --checkpoint-dir (reuse, keying,
 * recapture of corrupt and foreign containers).
 */

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <thread>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/serialize.hh"
#include "sweep/checkpoint.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "sweep/snapshot_cache.hh"
#include "workloads/workload.hh"
#include "expect_same_stats.hh"

namespace sdv {
namespace {

/** A fresh directory, removed with its contents at scope exit. */
struct ScratchDir
{
    std::string path;

    ScratchDir()
    {
        std::string tmpl = ::testing::TempDir() + "sdvXXXXXX";
        const char *dir = ::mkdtemp(tmpl.data());
        EXPECT_NE(dir, nullptr);
        path = dir ? dir : "";
    }

    ~ScratchDir() { std::filesystem::remove_all(path); }
};

std::deque<Program> &
keeper()
{
    static std::deque<Program> progs;
    return progs;
}

const Program &
keep(Program &&p)
{
    keeper().push_back(std::move(p));
    return keeper().back();
}

constexpr std::uint64_t warmupInsts = 5'000;

// --- checkpoint round trips ------------------------------------------------

TEST(Checkpoint, RestoreThenRunMatchesStraightThroughOnEveryWorkload)
{
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);

        // Path A: warm up, then continue in place.
        Simulator cont(cfg, prog);
        if (!cont.warmup(warmupInsts)) {
            ADD_FAILURE() << w.name << " finished inside the warm-up";
            continue;
        }
        const SimResult ra = cont.run(50'000'000, /*verify=*/true);

        // Path B: warm up, capture, restore into a fresh simulator
        // (through the serialized byte image), then run.
        Simulator warm(cfg, prog);
        ASSERT_TRUE(warm.warmup(warmupInsts));
        const std::vector<std::uint8_t> bytes =
            sweep::Checkpoint::capture(warm);
        EXPECT_GT(bytes.size(), 64u);

        Simulator restored(cfg, prog);
        std::string err;
        ASSERT_TRUE(sweep::Checkpoint::restore(restored, bytes, &err))
            << err;
        const SimResult rb = restored.run(50'000'000, /*verify=*/true);

        ASSERT_TRUE(ra.finished) << w.name;
        EXPECT_TRUE(ra.verified) << w.name;
        EXPECT_TRUE(rb.verified) << w.name;
        expectSameStats(ra, rb, w.name);
        EXPECT_EQ(cont.core().commitPcHash(),
                  restored.core().commitPcHash())
            << w.name;
    }
}

TEST(Checkpoint, FileRoundTrip)
{
    const Program &prog = keep(buildWorkload("compress", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Simulator warm(cfg, prog);
    ASSERT_TRUE(warm.warmup(warmupInsts));
    const auto bytes = sweep::Checkpoint::capture(warm);

    const std::string path = ::testing::TempDir() + "sdv_test.ckpt";
    ASSERT_TRUE(sweep::Checkpoint::save(path, bytes));
    std::vector<std::uint8_t> loaded;
    ASSERT_EQ(sweep::Checkpoint::LoadStatus::Ok,
              sweep::Checkpoint::load(path, loaded));
    EXPECT_EQ(bytes, loaded);
    std::remove(path.c_str());

    Simulator restored(cfg, prog);
    ASSERT_TRUE(sweep::Checkpoint::restore(restored, loaded));
    EXPECT_TRUE(restored.run(50'000'000, /*verify=*/true).verified);
}

TEST(SweepCheckpoint, LoadDistinguishesMissingFromCorrupt)
{
    ScratchDir dir;
    const std::string missing = dir.path + "/absent.ckpt";
    const std::string corrupt = dir.path + "/corrupt.ckpt";

    std::vector<std::uint8_t> bytes;
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Missing,
              sweep::Checkpoint::load(missing, bytes));

    std::FILE *f = std::fopen(corrupt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Corrupt,
              sweep::Checkpoint::load(corrupt, bytes));

    // Round-trip through the atomic save path: the payload comes back
    // verbatim and no temp file is left beside it.
    const std::string saved = dir.path + "/saved.ckpt";
    std::vector<std::uint8_t> payload;
    {
        Serializer ser;
        ser.str("atomic-save probe");
        payload = ser.finish();
    }
    ASSERT_TRUE(sweep::Checkpoint::save(saved, payload));
    std::vector<std::uint8_t> loaded;
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Ok,
              sweep::Checkpoint::load(saved, loaded));
    EXPECT_EQ(payload, loaded);
    for (const auto &e : std::filesystem::directory_iterator(dir.path))
        EXPECT_EQ(e.path().filename().string().find("tmp"),
                  std::string::npos)
            << "temp-file litter: " << e.path();
}

TEST(Checkpoint, RejectsCorruptedAndTruncatedImages)
{
    const Program &prog = keep(buildWorkload("go", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Simulator warm(cfg, prog);
    ASSERT_TRUE(warm.warmup(warmupInsts));
    const auto bytes = sweep::Checkpoint::capture(warm);

    // Pristine image restores.
    {
        Simulator sim(cfg, prog);
        EXPECT_TRUE(sweep::Checkpoint::restore(sim, bytes));
    }
    // Truncations of any length are rejected by the checksum.
    for (size_t keep_bytes : {size_t(0), size_t(7), bytes.size() / 2,
                              bytes.size() - 1}) {
        auto trunc = bytes;
        trunc.resize(keep_bytes);
        Simulator sim(cfg, prog);
        std::string err;
        EXPECT_FALSE(sweep::Checkpoint::restore(sim, trunc, &err))
            << "kept " << keep_bytes;
        EXPECT_FALSE(err.empty());
    }
    // Single-bit corruption anywhere (header, payload, trailer).
    for (size_t pos : {size_t(0), size_t(9), bytes.size() / 3,
                       bytes.size() - 2}) {
        auto bad = bytes;
        bad[pos] ^= 0x40;
        Simulator sim(cfg, prog);
        std::string err;
        EXPECT_FALSE(sweep::Checkpoint::restore(sim, bad, &err))
            << "flipped byte " << pos;
    }
    // A checkpoint from a different program is rejected.
    {
        const Program &other = keep(buildWorkload("li", 1));
        Simulator sim(cfg, other);
        std::string err;
        EXPECT_FALSE(sweep::Checkpoint::restore(sim, bytes, &err));
        EXPECT_NE(err.find("different program"), std::string::npos);
    }
}

TEST(Checkpoint, ForksAcrossTheTable1Grid)
{
    // One warmed snapshot (4-way, 1 wide port, SDV) must restore into
    // every machine of the Figure 11 matrix: widths, port counts, bus
    // flavours and engine on/off all vary, the warm-structure geometry
    // does not.
    const Program &prog = keep(buildWorkload("swim", 1));
    Simulator warm(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(warm.warmup(warmupInsts));
    const auto bytes = sweep::Checkpoint::capture(warm);

    for (unsigned width : {4u, 8u}) {
        for (unsigned ports : {1u, 2u, 4u}) {
            for (BusMode mode : {BusMode::ScalarBus, BusMode::WideBus,
                                 BusMode::WideBusSdv}) {
                Simulator sim(makeConfig(width, ports, mode), prog);
                std::string err;
                ASSERT_TRUE(
                    sweep::Checkpoint::restore(sim, bytes, &err))
                    << configLabel(ports, mode) << ": " << err;
                const SimResult r = sim.run(50'000'000, /*verify=*/true);
                EXPECT_TRUE(r.finished);
                EXPECT_TRUE(r.verified)
                    << width << "-way " << configLabel(ports, mode);
            }
        }
    }

    // Geometry mismatch is detected before any state moves.
    CoreConfig small = makeConfig(4, 1, BusMode::WideBusSdv);
    small.mem.l1dSize = 16 * 1024;
    Simulator sim(small, prog);
    std::string err;
    EXPECT_FALSE(sweep::Checkpoint::restore(sim, bytes, &err));
    EXPECT_NE(err.find("geometry"), std::string::npos);
}

// --- plan registry ---------------------------------------------------------

TEST(SweepPlan, RegistryCoversEveryFigureGrid)
{
    EXPECT_TRUE(sweep::havePlan("fig11"));
    EXPECT_TRUE(sweep::havePlan("all"));
    EXPECT_FALSE(sweep::havePlan("fig99"));

    // The Figure 11 matrix: 2 widths x 3 port counts x 3 bus modes.
    EXPECT_EQ(sweep::figureGrid("fig11").size(), 18u);
    EXPECT_EQ(sweep::figureGrid("fig07").size(), 2u);

    sweep::PlanOptions opt;
    opt.quick = true;
    for (const sweep::PlanInfo &info : sweep::allPlans()) {
        const sweep::SweepPlan plan = sweep::buildPlan(info.name, opt);
        EXPECT_FALSE(plan.jobs.empty()) << info.name;
        // Quick mode: 2 INT + 1 FP workloads — except the attack plan,
        // whose suite is the 2-workload timing-channel pair (quick mode
        // cannot shrink it further).
        const std::size_t suite =
            info.name == "attack" ? attackWorkloads().size() : 3;
        if (info.name != "all")
            EXPECT_EQ(plan.jobs.size(),
                      suite * sweep::figureGrid(info.name).size())
                << info.name;
        // Per-job seeds are distinct and reproducible.
        for (const sweep::SweepJob &job : plan.jobs)
            EXPECT_EQ(job.seed,
                      deriveSeed(job.workload,
                                 job.figure + ":" + job.configKey, 0));
    }
}

TEST(SweepPlan, QuickSubsetIsFirstTwoIntAndFirstFp)
{
    // The one --quick rule behind plans, the fuzz campaign and benches.
    std::vector<std::string> names;
    for (const Workload *w : selectWorkloads(allWorkloads(), true))
        names.push_back(w->name);
    EXPECT_EQ(names, (std::vector<std::string>{"go", "m88ksim", "swim"}));
    EXPECT_EQ(selectWorkloads(allWorkloads(), false).size(),
              allWorkloads().size());
    EXPECT_EQ(selectWorkloads(attackWorkloads(), true).size(), 2u);
}

TEST(SweepStats, ExpectSameStatsReportsTheBlockAndWordOfAMismatch)
{
    // Every counter takes part: one differing deep inside a block
    // fails, and the report locates it.
    SimResult a;
    a.l2.writebacks = 7;
    SimResult b = a;
    expectSameStats(a, b, "equal");
    b.l2.writebacks = 8;
    const std::size_t word =
        offsetof(CacheStats, writebacks) / sizeof(std::uint64_t);
    EXPECT_NONFATAL_FAILURE(expectSameStats(a, b, "differs"),
                            "l2 word " + std::to_string(word) + ": 7 vs 8");
    expectSameStats(a, b, "exempt", {{"l2", word}});
}

TEST(SweepPlan, SeedsAreStreamAndOrderIndependent)
{
    // Same (workload, config, seed) -> same stream; any difference ->
    // a different stream.
    EXPECT_EQ(deriveSeed("go", "fig11:8w/1pV", 7),
              deriveSeed("go", "fig11:8w/1pV", 7));
    EXPECT_NE(deriveSeed("go", "fig11:8w/1pV", 7),
              deriveSeed("go", "fig11:8w/1pV", 8));
    EXPECT_NE(deriveSeed("go", "fig11:8w/1pV", 7),
              deriveSeed("gcc", "fig11:8w/1pV", 7));
    EXPECT_NE(deriveSeed("go", "fig11:8w/1pV", 7),
              deriveSeed("go", "fig11:8w/2pV", 7));
    // The (workload, config) split is not ambiguous under
    // concatenation.
    EXPECT_NE(deriveSeed("ab", "c", 0), deriveSeed("a", "bc", 0));

    Random base(42);
    Random f1 = base.fork(1);
    Random f2 = base.fork(2);
    EXPECT_NE(f1.next(), f2.next());
}

// --- executor determinism --------------------------------------------------

TEST(SweepExecutor, ParallelMatchesSerialByteForByte)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    const sweep::SweepPlan plan = sweep::buildPlan("fig07", popt);

    sweep::ExecOptions serial;
    serial.jobs = 1;
    sweep::ExecOptions parallel;
    parallel.jobs = 4;

    const std::string a =
        sweep::resultsJson(sweep::runPlan(plan, serial));
    const std::string b =
        sweep::resultsJson(sweep::runPlan(plan, parallel));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"workload\""), std::string::npos);
}

TEST(SweepExecutor, CheckpointedSweepIsDeterministicAndVerified)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    const sweep::SweepPlan plan = sweep::buildPlan("fig13", popt);

    sweep::ExecOptions opt;
    opt.checkpoint = true;
    opt.warmupInsts = warmupInsts;
    opt.verify = true;

    opt.jobs = 1;
    const auto serial = sweep::runPlan(plan, opt);
    opt.jobs = 2;
    const auto parallel = sweep::runPlan(plan, opt);

    ASSERT_EQ(serial.size(), plan.jobs.size());
    for (const sweep::RunOutcome &o : serial) {
        EXPECT_TRUE(o.fromCheckpoint) << o.workload;
        EXPECT_TRUE(o.res.verified) << o.workload;
    }
    EXPECT_EQ(sweep::resultsJson(serial), sweep::resultsJson(parallel));
}

TEST(SweepExecutor, ResolveJobsAutoDetects)
{
    EXPECT_EQ(5u, sweep::resolveJobs(5));
    EXPECT_EQ(1u, sweep::resolveJobs(1));
    const unsigned resolved = sweep::resolveJobs(0);
    EXPECT_GE(resolved, 1u);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 1) {
        EXPECT_EQ(hw - 1, resolved);
    }
}

// --- snapshot store (--checkpoint-dir) -------------------------------------

/** What one sweep through a snapshot directory produced. */
struct StoreRun
{
    std::string json;
    std::uint64_t captures = 0;
    std::uint64_t captureBytes = 0;
};

StoreRun
runThrough(const sweep::SweepPlan &plan, sweep::ExecOptions opt,
           const std::string &dir)
{
    opt.checkpointDir = dir;
    sweep::ExecMetrics m;
    StoreRun r;
    r.json = sweep::resultsJson(sweep::runPlan(plan, opt, &m));
    r.captures = m.checkpointCaptures;
    r.captureBytes = m.checkpointCaptureBytes;
    return r;
}

/** A small sampled sweep: 3 quick workloads x 2 configs x 3 samples. */
sweep::ExecOptions
sampledOptions()
{
    sweep::ExecOptions opt;
    opt.jobs = 2;
    opt.warmupInsts = warmupInsts;
    opt.sample.samples = 3;
    opt.sample.measureInsts = 2'000;
    return opt;
}

sweep::SweepPlan
quickPlan(const std::string &name)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    return sweep::buildPlan(name, popt);
}

TEST(SweepStore, RerunOnPopulatedDirectoryCapturesNothing)
{
    const sweep::SweepPlan plan = quickPlan("fig07");
    sweep::ExecOptions ckpt;
    ckpt.jobs = 2;
    ckpt.checkpoint = true;
    ckpt.warmupInsts = warmupInsts;
    ckpt.verify = true;
    // Images per run: one per workload, or one per warm sample.
    for (const auto &[opt, images] :
         {std::make_pair(ckpt, 3u), std::make_pair(sampledOptions(), 9u)}) {
        SCOPED_TRACE(opt.sample.enabled() ? "sampled" : "checkpoint");
        const StoreRun cold = runThrough(plan, opt, "");
        EXPECT_EQ(images, cold.captures);
        EXPECT_GT(cold.captureBytes, 0u);

        ScratchDir dir;
        const StoreRun first = runThrough(plan, opt, dir.path);
        EXPECT_EQ(images, first.captures);
        EXPECT_EQ(cold.captureBytes, first.captureBytes);
        EXPECT_EQ(cold.json, first.json);

        const StoreRun again = runThrough(plan, opt, dir.path);
        EXPECT_EQ(0u, again.captures);
        EXPECT_EQ(0u, again.captureBytes);
        EXPECT_EQ(cold.json, again.json);
    }
}

TEST(SweepStore, DirectorySharedByTwoPlansKeepsThemApart)
{
    // fig11 and headline warm their workloads under different machines;
    // headline must not fork from fig11's snapshots.
    sweep::ExecOptions opt;
    opt.jobs = 2;
    opt.checkpoint = true;
    const sweep::SweepPlan headline = quickPlan("headline");
    const std::string cold =
        sweep::resultsJson(sweep::runPlan(headline, opt));

    ScratchDir dir;
    runThrough(quickPlan("fig11"), opt, dir.path);
    const StoreRun shared = runThrough(headline, opt, dir.path);
    EXPECT_EQ(3u, shared.captures);
    EXPECT_EQ(cold, shared.json);
}

TEST(SweepStore, CorruptContainerIsRecapturedWithAWarning)
{
    const sweep::SweepPlan plan = quickPlan("fig07");
    const sweep::ExecOptions opt = sampledOptions();
    ScratchDir dir;
    const StoreRun cold = runThrough(plan, opt, dir.path);

    const std::string path =
        dir.path + "/" +
        sweep::snapshotKey(plan, opt, plan.jobs.front().workload) + ".snap";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a snapshot set", f);
    std::fclose(f);

    ::testing::internal::CaptureStderr();
    const StoreRun r = runThrough(plan, opt, dir.path);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(path + " is corrupt"), std::string::npos) << err;
    EXPECT_EQ(3u, r.captures); // that workload's samples only
    EXPECT_EQ(cold.json, r.json);
    EXPECT_EQ(0u, runThrough(plan, opt, dir.path).captures);
}

TEST(SweepStore, ContainerFromAnotherBuildIsRecapturedNeverRestored)
{
    const sweep::SweepPlan plan = quickPlan("fig07");
    const sweep::ExecOptions opt = sampledOptions();
    const std::string cold =
        sweep::resultsJson(sweep::runPlan(plan, opt));

    // A container at the right key holding another warm-up's samples:
    // restoring it would change that workload's records.
    const std::string &w = plan.jobs.front().workload;
    const Program &prog = keep(buildWorkload(w, plan.scale, plan.footprint));
    sweep::SamplePlan sp = opt.sample;
    sp.warmupInsts = opt.warmupInsts + 1'000;
    const sweep::SampleSet other = sweep::captureSamples(
        sweep::warmConfig(plan, opt, w), prog, sp, opt.maxCycles);
    ScratchDir dir;
    const std::string path =
        dir.path + "/" + sweep::snapshotKey(plan, opt, w) + ".snap";

    // Control: written by this binary, the container is trusted.
    ASSERT_TRUE(sweep::saveSnapshotSet(path, other, prog.identityHash(),
                                       sweep::binaryFingerprint()));
    EXPECT_NE(cold, runThrough(plan, opt, dir.path).json);

    // Written by another build: recaptured and overwritten in place.
    ASSERT_TRUE(sweep::saveSnapshotSet(path, other, prog.identityHash(),
                                       sweep::binaryFingerprint() ^ 1));
    const StoreRun r = runThrough(plan, opt, dir.path);
    EXPECT_EQ(3u, r.captures);
    EXPECT_EQ(cold, r.json);
    EXPECT_EQ(0u, runThrough(plan, opt, dir.path).captures);
}

// --- program sharing -------------------------------------------------------

TEST(SweepExecutor, PredecodedProgramsAreStableUnderConcurrentReads)
{
    // predecodeAll() must leave instAt() a pure read: same cached slot,
    // same contents, no lazy-fill writes left to race on.
    Program p = buildWorkload("go", 1);
    p.predecodeAll();
    const Addr pc = p.entry();
    const Instruction &a = p.instAt(pc);
    const Instruction &b = p.instAt(pc);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(p.encodedAt(pc), a.encode());
}

} // namespace
} // namespace sdv
