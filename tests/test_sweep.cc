/**
 * @file
 * Tests of the sweep subsystem: checkpoint capture/restore bit-identity
 * (restore-then-run equals warmup-then-continue on every tier-1
 * workload, statistics and commit hashes included), corrupted /
 * truncated snapshot rejection, cross-configuration restores, direct
 * audits of the delta memory images and the image checksum, the plan
 * registry, executor determinism (parallel == serial, checkpointed or
 * not), the executor's fork decision (which configs take the
 * snapshots, and that the rest run in full), the snapshot store
 * behind --checkpoint-dir (reuse, keying, recapture of corrupt,
 * foreign and older-format containers), the capture passes sharing
 * the pool with the units (same records and warnings at 1, 2 and 4
 * jobs) and the figure reports (headline formulas, one report per
 * figure of --plan all).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "arch/executor.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "sweep/checkpoint.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "sweep/report.hh"
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

    // A path under a regular file (fopen fails with ENOTDIR) cannot
    // hold an image either: missing, not corrupt.
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Missing,
              sweep::Checkpoint::load(corrupt + "/absent.ckpt", bytes));

    // A directory at the image path opens, but holds no image.
    const std::string subdir = dir.path + "/dir.ckpt";
    ASSERT_TRUE(std::filesystem::create_directory(subdir));
    EXPECT_EQ(sweep::Checkpoint::LoadStatus::Corrupt,
              sweep::Checkpoint::load(subdir, bytes));

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

// --- delta images and the image checksum ---------------------------------

/** The memory pages of an oracle image (FunctionalCore::saveState),
 *  in the order it lists them. */
std::vector<Addr>
imagePages(const FunctionalCore &oracle)
{
    Serializer ser;
    oracle.saveState(ser);
    const std::vector<std::uint8_t> bytes = ser.finish();
    Deserializer des(bytes);
    EXPECT_TRUE(des.verifyChecksum());
    des.b();   // halted
    des.u64(); // instCount
    ArchState regs;
    regs.loadState(des);
    EXPECT_EQ(des.u32(), SparseMemory::pageBytes);
    std::vector<Addr> pages(des.u64());
    std::vector<std::uint8_t> skip(SparseMemory::pageBytes);
    for (Addr &a : pages) {
        a = des.u64();
        des.bytes(skip.data(), skip.size());
    }
    EXPECT_TRUE(des.atEnd());
    return pages;
}

/** Capture @p warm, restore the image into a fresh simulator and hold
 *  the restored oracle memory against the captured one. */
void
expectRestoredMemoryEqualsCaptured(Simulator &warm, const CoreConfig &cfg,
                                   const Program &prog)
{
    const auto bytes = sweep::Checkpoint::capture(warm);
    Simulator restored(cfg, prog);
    ASSERT_TRUE(sweep::Checkpoint::restore(restored, bytes));
    const SparseMemory &a = warm.core().oracle().memory();
    const SparseMemory &b = restored.core().oracle().memory();
    EXPECT_TRUE(b.equals(a));
    EXPECT_EQ(b.pageAddrs(), a.pageAddrs());
}

TEST(CheckpointAudit, RestoredOracleMemoryEqualsTheCapturedOne)
{
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Program &prog = keep(w.instantiate(1));
        Simulator warm(cfg, prog);
        ASSERT_TRUE(warm.warmup(warmupInsts));
        expectRestoredMemoryEqualsCaptured(warm, cfg, prog);
    }
    // A memory-resident footprint, at boundaries spread over its run:
    // the delta grows as the program writes its working set.
    const Program &prog = keep(buildWorkload("swim", 1, Footprint::Mem));
    Simulator warm(cfg, prog);
    for (std::uint64_t boundary : {10'000u, 200'000u, 1'000'000u}) {
        SCOPED_TRACE(boundary);
        ASSERT_TRUE(warm.advanceTo(boundary, 200'000'000));
        expectRestoredMemoryEqualsCaptured(warm, cfg, prog);
    }
}

TEST(CheckpointAudit, ImageListsExactlyThePagesThatDifferFromTheLoadImage)
{
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Program &prog = keep(w.instantiate(1));
        Simulator warm(cfg, prog);
        ASSERT_TRUE(warm.warmup(warmupInsts));
        const SparseMemory &mem = warm.core().oracle().memory();
        SparseMemory loaded;
        loadProgram(prog, loaded);

        // From scratch: every page of the warm memory that the load
        // image lacks, or holds with other bytes.
        const std::vector<Addr> base = loaded.pageAddrs();
        std::vector<Addr> expected;
        std::vector<std::uint8_t> x(SparseMemory::pageBytes),
            y(SparseMemory::pageBytes);
        for (Addr a : mem.pageAddrs()) {
            mem.readBytes(a, x.data(), x.size());
            loaded.readBytes(a, y.data(), y.size());
            if (!std::binary_search(base.begin(), base.end(), a) || x != y)
                expected.push_back(a);
        }
        EXPECT_FALSE(expected.empty());
        EXPECT_LT(expected.size(), mem.numPages());
        EXPECT_EQ(imagePages(warm.core().oracle()), expected);
    }
}

TEST(CheckpointAuditDeathTest, RestoreIntoAWarmedSimulatorHitsTheFreshCoreAssert)
{
    const Program &prog = keep(buildWorkload("go", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Simulator warm(cfg, prog);
    ASSERT_TRUE(warm.warmup(warmupInsts));
    const auto bytes = sweep::Checkpoint::capture(warm);
    // The image's memory is a delta over the load image; a warmed core
    // no longer holds it.
    EXPECT_DEATH(sweep::Checkpoint::restore(warm, bytes),
                 "restore into a core that is not fresh");
}

TEST(ImageChecksum, EverySingleBitFlipChangesIt)
{
    Random rng(deriveSeed("checksum", "bits", 0));
    std::vector<std::uint8_t> buf(4096 + 7);
    for (std::uint8_t &b : buf)
        b = std::uint8_t(rng.next());
    const std::uint64_t sum = checksum64(buf.data(), buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i)
        for (unsigned bit = 0; bit < 8; ++bit) {
            buf[i] ^= std::uint8_t(1u << bit);
            EXPECT_NE(checksum64(buf.data(), buf.size()), sum)
                << "byte " << i << " bit " << bit;
            buf[i] ^= std::uint8_t(1u << bit);
        }
}

TEST(ImageChecksum, EveryTailLengthGivesADistinctValue)
{
    // Tails of 0..31 bytes past the last 32-byte stripe, of random and
    // of zero bytes: zero padding must not make lengths collide.
    Random rng(deriveSeed("checksum", "tails", 0));
    for (bool zeros : {false, true}) {
        std::vector<std::uint8_t> buf(4096 + 31);
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = zeros && i >= 4096 ? 0 : std::uint8_t(rng.next());
        std::set<std::uint64_t> sums;
        for (std::size_t tail = 0; tail < 32; ++tail)
            sums.insert(checksum64(buf.data(), 4096 + tail));
        EXPECT_EQ(sums.size(), 32u) << (zeros ? "zero" : "random");
    }
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

// --- figure reports --------------------------------------------------------

/** @return the outcomes of plan @p name (--quick) without simulating:
 *  each job's identity stamped into a RunOutcome whose counters @p fill
 *  sets. */
std::vector<sweep::RunOutcome>
stampedOutcomes(const std::string &name,
                const std::function<void(sweep::RunOutcome &)> &fill)
{
    sweep::PlanOptions opt;
    opt.quick = true;
    std::vector<sweep::RunOutcome> outcomes;
    for (const sweep::SweepJob &job : sweep::buildPlan(name, opt).jobs) {
        sweep::RunOutcome o;
        o.figure = job.figure;
        o.workload = job.workload;
        o.isFp = job.isFp;
        o.group = job.group;
        o.column = job.column;
        o.configKey = job.configKey;
        o.cfg = job.cfg;
        o.seed = job.seed;
        fill(o);
        outcomes.push_back(o);
    }
    return outcomes;
}

TEST(Reports, HeadlineOfAPaperMachinePrintsThePaperClaims)
{
    // Counters under which every headline formula reads the paper's
    // value, the same for each workload of a suite. perfbench/gate.py
    // copies the cycle-sum formulas for paper_err_pp.
    const std::vector<sweep::RunOutcome> outcomes =
        stampedOutcomes("headline", [](sweep::RunOutcome &o) {
            SimResult &r = o.res;
            if (o.column == "4w-1pV") {
                r.cycles = 1000;
                r.ports.readAccesses = o.isFp ? 800 : 850;
                r.engine.storesChecked = 1000;
                r.engine.storeRangeConflicts = o.isFp ? 25 : 45;
            } else if (o.column == "4w-1pIM") {
                r.cycles = o.isFp ? 1081 : 1212;
                r.ports.readAccesses = 1000;
            } else if (o.column == "4w-4pnoIM") {
                r.cycles = 1190;
            } else {
                ASSERT_EQ(o.column, "8w-4pnoIM");
                r.cycles = 1030;
            }
        });
    ASSERT_EQ(outcomes.size(), 12u);
    const std::string report = sweep::planReport(outcomes);
    for (const char *line : {"  speedup: +19.0%   (paper: +19%)\n",
                             "  SpecInt: -15.0%   (paper: -15%)\n",
                             "  SpecFP:  -20.0%   (paper: -20%)\n",
                             "  SpecInt: +21.2%   (paper: +21.2%)\n",
                             "  SpecFP:  +8.1%   (paper: +8.1%)\n",
                             "  speedup: +3.0%   (paper: +3%)\n",
                             "  SpecInt:  4.50%   (paper: 4.5%)\n",
                             "  SpecFP:   2.50%   (paper: 2.5%)\n"})
        EXPECT_NE(report.find(line), std::string::npos)
            << line << "in:\n" << report;
}

TEST(Reports, PlanAllPrintsEachFigureOnceInPlanOrder)
{
    const std::string report = sweep::planReport(
        stampedOutcomes("all", [](sweep::RunOutcome &o) {
            o.res.cycles = 1000;
            o.res.insts = 1500;
            o.res.ipc = 1.5;
        }));
    std::vector<std::string> lines;
    std::istringstream in(report);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);

    // A banner is a rule, the title and the paper line; the title up
    // to its " - " or " (" names the figure.
    std::vector<std::string> figures;
    for (std::size_t i = 0; i + 2 < lines.size(); ++i)
        if (lines[i].starts_with("=====") &&
            lines[i + 2].starts_with("paper: "))
            figures.push_back(lines[i + 1].substr(
                0, lines[i + 1].find_first_of("-(") - 1));
    EXPECT_EQ(figures,
              (std::vector<std::string>{
                  "Figure 7", "Figure 9", "Figure 10", "Figure 11",
                  "Figure 12", "Figure 13", "Figure 14", "Figure 15",
                  "Ablation", "Headline claims"}));

    // Every suite table (header "benchmark ...", rows up to the blank
    // line, separators skipped): one table for each single-section
    // figure, one per width for Figures 11 and 12.
    unsigned tables = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!lines[i].starts_with("benchmark "))
            continue;
        ++tables;
        std::vector<std::string> rows;
        for (std::size_t j = i + 1; j < lines.size() && !lines[j].empty();
             ++j)
            if (!lines[j].starts_with("-"))
                rows.push_back(lines[j].substr(0, lines[j].find(' ')));
        EXPECT_EQ(rows, (std::vector<std::string>{"go", "m88ksim", "INT",
                                                  "swim", "FP", "Spec95"}))
            << lines[i - 1];
    }
    EXPECT_EQ(tables, 10u);

    // The attack plan is no paper figure.
    EXPECT_EQ(sweep::planReport(
                  stampedOutcomes("attack", [](sweep::RunOutcome &) {})),
              "");
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

/** The attack plan's `eager` column chains eagerly without
 *  --eager-chain: the exec overlay only turns eager chaining on, so it
 *  keeps the grid's setting. */
TEST(SweepExecutor, AttackPlanEagerColumnChainsEagerly)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    const sweep::SweepPlan plan = sweep::buildPlan("attack", popt);
    const sweep::ExecOptions opt;
    const std::vector<sweep::RunOutcome> outcomes =
        sweep::runPlan(plan, opt);

    std::optional<CoreConfig> eager_cfg;
    for (const sweep::GridConfig &g : sweep::figureGrid("attack"))
        if (g.column == "eager")
            eager_cfg = g.cfg;
    ASSERT_TRUE(eager_cfg && eager_cfg->engine.eagerChainLoads);

    unsigned checked = 0;
    for (const sweep::RunOutcome &eager : outcomes) {
        if (eager.column != "eager")
            continue;
        SCOPED_TRACE(eager.workload);
        const auto base = std::find_if(
            outcomes.begin(), outcomes.end(),
            [&](const sweep::RunOutcome &o) {
                return o.workload == eager.workload && o.column == "base";
            });
        ASSERT_NE(base, outcomes.end());
        EXPECT_TRUE(eager.cfg.engine.eagerChainLoads);

        const Program &prog = keep(
            buildWorkload(eager.workload, plan.scale, plan.footprint));
        Simulator direct(*eager_cfg, prog);
        const SimResult res = direct.run(opt.maxCycles, /*verify=*/false);
        EXPECT_EQ(eager.res.cycles, res.cycles);
        EXPECT_EQ(eager.commitHash, direct.core().commitPcHash());
        EXPECT_NE(eager.res.cycles, base->res.cycles);
        ++checked;
    }
    EXPECT_EQ(checked, attackWorkloads().size());
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

// --- fork decision ---------------------------------------------------------

/** Sampling for small sweeps: 3 samples of 2,000 instructions. */
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

TEST(SweepForks, CompatibleAgreesWithValidateOnEveryGridConfig)
{
    // The executor forks a job when Checkpoint::compatible holds for
    // the warm and the job configuration; validate() against a warm
    // image on a simulator built with the job configuration is the
    // reference it replaces.
    const sweep::ExecOptions opt;
    std::size_t forks = 0, fallbacks = 0;
    for (const sweep::PlanInfo &info : sweep::allPlans()) {
        if (info.name == "all")
            continue;
        SCOPED_TRACE(info.name);
        const sweep::SweepPlan plan = quickPlan(info.name);
        const std::string &w = plan.jobs.front().workload;
        const Program &prog = keep(buildWorkload(w, plan.scale));
        const CoreConfig warm = sweep::warmConfig(plan, opt, w);
        Simulator warmed(warm, prog);
        ASSERT_TRUE(warmed.warmup(warmupInsts));
        const auto image = sweep::Checkpoint::capture(warmed);
        for (const sweep::SweepJob &job : plan.jobs) {
            if (job.workload != w)
                continue;
            CoreConfig cfg = job.cfg;
            sweep::applyExecOverlay(cfg, opt);
            Simulator sim(cfg, prog);
            const bool compatible =
                sweep::Checkpoint::compatible(warm, cfg);
            EXPECT_EQ(compatible, sweep::Checkpoint::validate(sim, image))
                << job.configKey;
            ++(compatible ? forks : fallbacks);
        }
    }
    EXPECT_GT(forks, 0u);
    EXPECT_EQ(fallbacks, 2u); // ablation conf1 and conf3
}

TEST(SweepForks, ConfigsThatCannotTakeTheSnapshotsRunInFull)
{
    // The ablation's TL-confidence columns shape the warm Table of
    // Loads differently from the warm configuration: a sampled run
    // takes them in full, record for record like a plain full run, and
    // samples every other column.
    const sweep::SweepPlan plan = quickPlan("ablation");
    const sweep::ExecOptions opt = sampledOptions();
    ::testing::internal::CaptureStderr();
    const std::vector<sweep::RunOutcome> sampled =
        sweep::runPlan(plan, opt);
    const std::string err = ::testing::internal::GetCapturedStderr();

    const auto inFull = [](const sweep::SweepJob &job) {
        return job.configKey == "conf1" || job.configKey == "conf3";
    };
    sweep::SweepPlan cold = plan;
    std::erase_if(cold.jobs, [&](const sweep::SweepJob &job) {
        return !inFull(job);
    });
    EXPECT_EQ(cold.jobs.size(), 6u);
    sweep::ExecOptions plain = opt;
    plain.sample = sweep::SamplePlan{};
    const std::vector<sweep::RunOutcome> full = sweep::runPlan(cold, plain);

    ASSERT_EQ(sampled.size(), plan.jobs.size());
    for (std::size_t i = 0, k = 0; i < plan.jobs.size(); ++i) {
        const sweep::RunOutcome &o = sampled[i];
        const std::string job = o.workload + "/" + o.configKey;
        SCOPED_TRACE(job);
        if (!inFull(plan.jobs[i])) {
            EXPECT_EQ(o.samples, opt.sample.samples + 1);
            EXPECT_TRUE(o.fromCheckpoint);
            continue;
        }
        EXPECT_EQ(o.samples, 0u);
        EXPECT_FALSE(o.fromCheckpoint);
        EXPECT_EQ(sweep::resultRecordJson(o),
                  sweep::resultRecordJson(full[k++]));
        const std::string warning =
            "running " + job + " as a full run (snapshot geometry "
            "mismatch)";
        const std::size_t at = err.find(warning);
        EXPECT_NE(at, std::string::npos) << err;
        EXPECT_EQ(err.find(warning, at + 1), std::string::npos) << err;
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

TEST(SweepStoreDeathTest, OlderVersionContainerIsAnotherBuildsNotCorrupt)
{
    // A container in the previous format (version 2, sealed with an
    // FNV-1a trailer) fails this build's checksum, but it is another
    // build's file, not a damaged one. The store warns once per process
    // and kind, so the run is checked in a fresh process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const sweep::SweepPlan plan = quickPlan("fig07");
    const sweep::ExecOptions opt = sampledOptions();
    ScratchDir dir;
    const StoreRun cold = runThrough(plan, opt, dir.path);
    const std::string path =
        dir.path + "/" +
        sweep::snapshotKey(plan, opt, plan.jobs.front().workload) + ".snap";
    {
        Serializer ser;
        ser.bytes("SDVSNAP1", 8);
        ser.u32(2);
        ser.u64(sweep::binaryFingerprint());
        std::vector<std::uint8_t> bytes = ser.finish();
        bytes.resize(bytes.size() - 8); // drop this build's trailer
        const std::uint64_t fnv = fnv1a(bytes.data(), bytes.size());
        for (unsigned i = 0; i < 8; ++i)
            bytes.push_back(std::uint8_t(fnv >> (8 * i)));
        ASSERT_TRUE(sweep::Checkpoint::save(path, bytes));
    }
    EXPECT_EXIT(
        {
            ::testing::internal::CaptureStderr();
            const StoreRun r = runThrough(plan, opt, dir.path);
            const std::string err =
                ::testing::internal::GetCapturedStderr();
            std::filesystem::remove_all(dir.path);
            std::fputs(err.c_str(), stderr);
            std::exit(err.find("corrupt") == std::string::npos &&
                              r.captures == 3 && r.json == cold.json
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0),
        "was captured by another build; recapturing");
}

// --- captures on the pool --------------------------------------------------

/** What one runPlan printed and returned. */
struct Observed
{
    std::vector<sweep::RunOutcome> outcomes;
    std::string json;
    std::vector<std::string> stderrLines; ///< in print order
    sweep::ExecMetrics metrics;

    /** @return the printed lines sorted: captures running side by side
     *  may print their warnings in either order. */
    std::vector<std::string>
    warnings() const
    {
        std::vector<std::string> w = stderrLines;
        std::sort(w.begin(), w.end());
        return w;
    }
};

Observed
observe(const sweep::SweepPlan &plan, sweep::ExecOptions opt, unsigned jobs)
{
    opt.jobs = jobs;
    Observed o;
    ::testing::internal::CaptureStderr();
    o.outcomes = sweep::runPlan(plan, opt, &o.metrics);
    std::istringstream err(::testing::internal::GetCapturedStderr());
    for (std::string line; std::getline(err, line);)
        o.stderrLines.push_back(line);
    o.json = sweep::resultsJson(o.outcomes);
    return o;
}

/** The quick ablation grid (go, m88ksim, swim) cut to two columns that
 *  fork and the two TL-confidence columns that cannot. */
sweep::SweepPlan
mixedPlan()
{
    sweep::SweepPlan plan = quickPlan("ablation");
    std::erase_if(plan.jobs, [](const sweep::SweepJob &job) {
        return job.configKey != "base" && job.configKey != "vlen2" &&
               job.configKey != "conf1" && job.configKey != "conf3";
    });
    return plan;
}

/** A 90,000-inst warm-up and a 20,000-inst sample period. At scale 1,
 *  go (82,315 insts) is too short to warm up or sample, m88ksim
 *  (111,716) ends before the third boundary (130,000), and swim
 *  (184,362) takes all three. */
sweep::ExecOptions
mixedOptions()
{
    sweep::ExecOptions opt;
    opt.warmupInsts = 90'000;
    opt.sample.samples = 3;
    opt.sample.measureInsts = 2'000;
    opt.sample.periodInsts = 20'000;
    return opt;
}

/** The geometry-fallback warnings of mixedPlan(), in plan order. */
const std::vector<std::string> fallbackWarnings = {
    "warn: running m88ksim/conf1 as a full run (snapshot geometry mismatch)",
    "warn: running m88ksim/conf3 as a full run (snapshot geometry mismatch)",
    "warn: running swim/conf1 as a full run (snapshot geometry mismatch)",
    "warn: running swim/conf3 as a full run (snapshot geometry mismatch)",
};

/** Expects every job of @p o that did not fork to hold, record for
 *  record, what a plain full run of @p plan under @p opt gives. */
void
expectUnforkedJobsMatchFullRuns(const sweep::SweepPlan &plan,
                                sweep::ExecOptions opt, const Observed &o)
{
    opt.checkpoint = false;
    opt.sample = sweep::SamplePlan{};
    const std::vector<sweep::RunOutcome> full = sweep::runPlan(plan, opt);
    ASSERT_EQ(full.size(), o.outcomes.size());
    std::size_t unforked = 0;
    for (std::size_t i = 0; i < full.size(); ++i) {
        if (o.outcomes[i].fromCheckpoint)
            continue;
        ++unforked;
        EXPECT_EQ(sweep::resultRecordJson(o.outcomes[i]),
                  sweep::resultRecordJson(full[i]));
    }
    EXPECT_EQ(unforked, 8u); // go's four jobs and four fallbacks
}

/** Runs @p plan at 1, 2 and 4 jobs and expects byte-identical records,
 *  the same warnings, and the fallback warnings printed last, in plan
 *  order; @return the one-job run. */
Observed
expectSameAtOneTwoAndFourJobs(const sweep::SweepPlan &plan,
                              const sweep::ExecOptions &opt)
{
    std::optional<Observed> serial;
    for (unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE(jobs);
        Observed o = observe(plan, opt, jobs);
        const std::vector<std::string> &lines = o.stderrLines;
        EXPECT_TRUE(lines.size() >= fallbackWarnings.size() &&
                    std::equal(fallbackWarnings.begin(),
                               fallbackWarnings.end(),
                               lines.end() - std::ptrdiff_t(
                                                 fallbackWarnings.size())))
            << ::testing::PrintToString(lines);
        if (!serial) {
            serial = std::move(o);
            continue;
        }
        EXPECT_EQ(serial->json, o.json);
        EXPECT_EQ(serial->warnings(), o.warnings());
        EXPECT_EQ(serial->metrics.checkpointCaptures,
                  o.metrics.checkpointCaptures);
        EXPECT_EQ(serial->metrics.checkpointRestores,
                  o.metrics.checkpointRestores);
    }
    return *serial;
}

TEST(SweepPipeline, EmptyPartialAndFallbackSetsMatchAtEveryJobCount)
{
    const Observed o =
        expectSameAtOneTwoAndFourJobs(mixedPlan(), mixedOptions());
    // Each kind of job is in the plan: go's empty set runs every job
    // in full, m88ksim's partial set forks 1 cold + 2 warm samples,
    // swim's full set 1 + 3, and conf1/conf3 fall back.
    for (const sweep::RunOutcome &out : o.outcomes) {
        SCOPED_TRACE(out.workload + "/" + out.configKey);
        const bool fallback =
            out.configKey == "conf1" || out.configKey == "conf3";
        const unsigned want = out.workload == "go" || fallback ? 0
                              : out.workload == "m88ksim"      ? 3
                                                               : 4;
        EXPECT_EQ(out.samples, want);
        EXPECT_EQ(out.fromCheckpoint, want > 0);
    }
    expectUnforkedJobsMatchFullRuns(mixedPlan(), mixedOptions(), o);
    EXPECT_EQ(o.metrics.checkpointCaptures, 2u + 3u);
    EXPECT_EQ(o.metrics.checkpointRestores, 2u * (2 + 3));
    EXPECT_EQ(std::count(o.stderrLines.begin(), o.stderrLines.end(),
                         "warn: program too short for 3 samples after a "
                         "90000-inst warm-up; falling back to full runs"),
              1);
}

TEST(SweepPipeline, PopulatedDirectoryMatchesAtEveryJobCount)
{
    ScratchDir dir;
    sweep::ExecOptions opt = mixedOptions();
    opt.checkpointDir = dir.path;
    const std::string first = observe(mixedPlan(), opt, 1).json;

    const Observed o = expectSameAtOneTwoAndFourJobs(mixedPlan(), opt);
    EXPECT_EQ(first, o.json);
    EXPECT_EQ(0u, o.metrics.checkpointCaptures);
    EXPECT_EQ(o.stderrLines, fallbackWarnings); // nothing to capture
}

TEST(SweepPipeline, CheckpointPlanMatchesAtEveryJobCount)
{
    sweep::ExecOptions opt;
    opt.checkpoint = true;
    opt.warmupInsts = 90'000; // go finishes first: it runs in full
    opt.verify = true;
    const Observed o = expectSameAtOneTwoAndFourJobs(mixedPlan(), opt);
    expectUnforkedJobsMatchFullRuns(mixedPlan(), opt, o);
    EXPECT_EQ(o.metrics.checkpointCaptures, 2u);
    EXPECT_EQ(o.metrics.checkpointRestores, 4u);
    for (const sweep::RunOutcome &out : o.outcomes)
        EXPECT_TRUE(out.res.verified) << out.workload << "/"
                                      << out.configKey;
}

TEST(SweepPipeline, MetricsCountTheCapturesOnThePool)
{
    const sweep::SweepPlan plan = quickPlan("fig07");
    const Observed o = observe(plan, sampledOptions(), 4);
    const sweep::ExecMetrics &m = o.metrics;
    EXPECT_EQ(m.workers, 4u);
    EXPECT_GT(m.captureSeconds, 0.0);
    EXPECT_GE(m.captureWaitSeconds, 0.0);
    EXPECT_NEAR(m.utilization(),
                (m.busySeconds + m.captureSeconds) /
                    (m.workers * m.poolWallSeconds),
                1e-12);
    const std::string json = m.toJson();
    for (const char *key :
         {"\"workers\"", "\"jobs_auto\"", "\"pool_wall_seconds\"",
          "\"busy_seconds\"", "\"utilization\"", "\"collate_seconds\"",
          "\"capture_seconds\"", "\"capture_wait_seconds\"",
          "\"checkpoint_captures\"", "\"checkpoint_restores\"",
          "\"jobs\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_NE(m.summaryTable().find("capture: "), std::string::npos);

    // A full-run plan has no capture task.
    const Observed full = observe(plan, sweep::ExecOptions{}, 4);
    EXPECT_EQ(full.metrics.captureSeconds, 0.0);
    EXPECT_EQ(full.metrics.captureWaitSeconds, 0.0);
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
