/**
 * @file
 * Tests of the sweep subsystem: checkpoint capture/restore bit-identity
 * (restore-then-run equals advance-then-continue on every tier-1
 * workload, statistics and commit hashes included), corrupted /
 * truncated snapshot rejection, cross-configuration restores, direct
 * audits of the delta memory images and the image checksum, the plan
 * registry, executor determinism (parallel == serial), the executor's
 * fork decision (which configs take the snapshots, and that the rest
 * run in full), the capture passes sharing the pool with the units
 * (same records, warnings and capture counts at 1, 2 and 4 jobs) and
 * the figure reports (headline formulas, one report per figure of
 * --plan all, and the inspection plans' reports without jobs).
 */

#include <algorithm>
#include <deque>
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
#include "workloads/workload.hh"
#include "expect_same_stats.hh"

namespace sdv {
namespace {

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
        if (!cont.advanceTo(warmupInsts)) {
            ADD_FAILURE() << w.name << " finished inside the warm-up";
            continue;
        }
        const SimResult ra = cont.run(50'000'000, /*verify=*/true);

        // Path B: warm up, capture, restore into a fresh simulator
        // (through the serialized byte image), then run.
        Simulator warm(cfg, prog);
        ASSERT_TRUE(warm.advanceTo(warmupInsts));
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

TEST(Checkpoint, RejectsCorruptedAndTruncatedImages)
{
    const Program &prog = keep(buildWorkload("go", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Simulator warm(cfg, prog);
    ASSERT_TRUE(warm.advanceTo(warmupInsts));
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
    ASSERT_TRUE(warm.advanceTo(warmupInsts));
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
        ASSERT_TRUE(warm.advanceTo(warmupInsts));
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
        ASSERT_TRUE(warm.advanceTo(warmupInsts));
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
    ASSERT_TRUE(warm.advanceTo(warmupInsts));
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

/** @return plan @p name under --quick. */
sweep::SweepPlan
quickPlan(const std::string &name)
{
    sweep::PlanOptions opt;
    opt.quick = true;
    return sweep::buildPlan(name, opt);
}

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
        // Only the three inspection plans simulate nothing.
        EXPECT_EQ(plan.jobs.empty(),
                  info.name == "fig01" || info.name == "fig03" ||
                      info.name == "table1")
            << info.name;
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

TEST(SweepPlan, InspectionPlansHoldTheirWorkloadsAndRenderWithoutJobs)
{
    const std::vector<std::pair<std::string, std::string>> banners = {
        {"fig01", "Figure 1 - stride distribution\n"},
        {"fig03", "Figure 3 - percentage of vectorizable instructions\n"},
        {"table1",
         "Table 1 - processor microarchitectural parameters\n"},
    };
    for (const auto &[name, title] : banners) {
        const sweep::SweepPlan plan = quickPlan(name);
        EXPECT_NE(sweep::planInspection(name), nullptr) << name;
        EXPECT_TRUE(plan.jobs.empty()) << name;
        std::vector<std::string> workloads;
        for (const Workload *w : plan.workloads)
            workloads.push_back(w->name);
        EXPECT_EQ(workloads,
                  (std::vector<std::string>{"go", "m88ksim", "swim"}))
            << name;
        // The banner: a rule, then the title line.
        const std::string report = sweep::planReport(plan, {});
        EXPECT_TRUE(report.starts_with("=====")) << report;
        EXPECT_EQ(report.substr(report.find('\n') + 1, title.size()), title)
            << report;
        if (name == "table1") {
            EXPECT_NE(report.find("  total                :  57856 bytes "
                                  "(~56KB)\n"),
                      std::string::npos)
                << report;
            // The footprints listed are the plan's: the quick three.
            EXPECT_NE(report.find("\n  swim "), std::string::npos);
            EXPECT_EQ(report.find("\n  fpppp "), std::string::npos);
        }
    }
    EXPECT_EQ(sweep::planInspection("fig11"), nullptr);
    EXPECT_EQ(sweep::planInspection("all"), nullptr);
}

TEST(SweepPlan, QuickSubsetIsFirstTwoIntAndFirstFp)
{
    // The one --quick rule behind plans and the fuzz campaign.
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

/** @return the outcomes of @p plan without simulating: each job's
 *  identity stamped into a RunOutcome whose counters @p fill sets. */
std::vector<sweep::RunOutcome>
stampedOutcomes(const sweep::SweepPlan &plan,
                const std::function<void(sweep::RunOutcome &)> &fill)
{
    std::vector<sweep::RunOutcome> outcomes;
    for (const sweep::SweepJob &job : plan.jobs) {
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
    const sweep::SweepPlan plan = quickPlan("headline");
    const std::vector<sweep::RunOutcome> outcomes =
        stampedOutcomes(plan, [](sweep::RunOutcome &o) {
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
    const std::string report = sweep::planReport(plan, outcomes);
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
    const sweep::SweepPlan all = quickPlan("all");
    const std::string report = sweep::planReport(
        all, stampedOutcomes(all, [](sweep::RunOutcome &o) {
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
    const sweep::SweepPlan attack = quickPlan("attack");
    EXPECT_EQ(sweep::planReport(
                  attack, stampedOutcomes(attack, [](sweep::RunOutcome &) {})),
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

TEST(SweepForks, CompatibleAgreesWithValidateOnEveryGridConfig)
{
    // The executor forks a job when Checkpoint::compatible holds for
    // the warm and the job configuration; validate() against a warm
    // image on a simulator built with the job configuration is the
    // reference it replaces.
    const sweep::ExecOptions opt;
    std::size_t forks = 0, fallbacks = 0;
    for (const sweep::PlanInfo &info : sweep::allPlans()) {
        const sweep::SweepPlan plan = quickPlan(info.name);
        if (info.name == "all" || plan.jobs.empty())
            continue;
        SCOPED_TRACE(info.name);
        const std::string &w = plan.jobs.front().workload;
        const Program &prog = keep(buildWorkload(w, plan.scale));
        const CoreConfig warm = sweep::warmConfig(plan, opt, w);
        Simulator warmed(warm, prog);
        ASSERT_TRUE(warmed.advanceTo(warmupInsts));
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
