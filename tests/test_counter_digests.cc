/**
 * @file
 * Pins every statistics counter of the `--plan all --quick` sweep (171
 * jobs, every figure grid over the quick workloads), not only the few
 * that the BENCH_* records carry, three times: as full runs, as full
 * runs with a vector quiesce every 5,000 fetched instructions
 * (`--quiesce-interval 5000`, the drain-at-each-boundary path of run())
 * and interval-sampled (`--samples 3`), which takes the warm-up and
 * bounded-measurement paths. Each of the nine statistics blocks
 * (statsBlocks) is folded over all jobs in plan order into one FNV-1a
 * digest, so a change that moves any counter of any job fails here and
 * names the block it moved. The two always-zero event-skip counters
 * are left out of the fold, as they were when the digests were first
 * pinned.
 *
 * Regenerating the digests when a change moves statistics on purpose:
 * run `./build/test_counter_digests`, and replace the failing test's
 * `pinned` table with the values its failure messages print (each
 * names its block). List the blocks that moved, and why, in the
 * change's notes.
 */

#include <array>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <string_view>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"

namespace sdv {
namespace {

/** One block's pinned digest. */
struct PinnedDigest
{
    std::string_view block;
    std::uint64_t digest;
};

constexpr std::size_t numBlocks = 9;
using PinnedDigests = std::array<PinnedDigest, numBlocks>;

/** @return true for the CoreStats words left out of the digests. */
bool
unpinned(std::string_view block, std::size_t word)
{
    constexpr std::size_t w = sizeof(std::uint64_t);
    return block == "core" &&
           (word == offsetof(CoreStats, eventSkipJumps) / w ||
            word == offsetof(CoreStats, eventSkippedCycles) / w);
}

/** Run `--plan all --quick` with @p opt on 3 threads and compare the
 *  digest of each statistics block with @p pinned. */
void
expectPinnedDigests(sweep::ExecOptions opt, const PinnedDigests &pinned)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    const sweep::SweepPlan plan = sweep::buildPlan("all", popt);
    opt.jobs = 3;
    const std::vector<sweep::RunOutcome> outcomes =
        sweep::runPlan(plan, opt);
    ASSERT_EQ(outcomes.size(), 171u);

    std::array<std::uint64_t, numBlocks> digests;
    digests.fill(1469598103934665603ULL); // the FNV-1a offset basis
    for (const sweep::RunOutcome &o : outcomes) {
        ASSERT_TRUE(o.res.finished) << o.workload << " " << o.configKey;
        const auto blocks = statsBlocks(o.res);
        ASSERT_EQ(blocks.size(), numBlocks);
        for (std::size_t k = 0; k < blocks.size(); ++k)
            for (std::size_t i = 0; i < blocks[k].words.size(); ++i)
                if (!unpinned(blocks[k].name, i))
                    digests[k] = fnv1a(
                        reinterpret_cast<const std::uint8_t *>(
                            &blocks[k].words[i]),
                        sizeof(std::uint64_t), digests[k]);
    }

    const auto blocks = statsBlocks(outcomes.front().res);
    for (std::size_t k = 0; k < numBlocks; ++k) {
        ASSERT_EQ(pinned[k].block, blocks[k].name);
        char got[19];
        std::snprintf(got, sizeof(got), "0x%016" PRIx64, digests[k]);
        EXPECT_EQ(digests[k], pinned[k].digest)
            << "statistics block \"" << pinned[k].block
            << "\" moved; its digest is now " << got << "ULL";
    }
}

TEST(CounterDigests, PlanAllQuickMatchesPinnedDigests)
{
    constexpr PinnedDigests pinned = {{
        {"core", 0x2ebdd4bed984307dULL},
        {"engine", 0x9a740078e2c82e59ULL},
        {"datapath", 0xe8a8ebbec8aa63dcULL},
        {"ports", 0xa095810b14c560a8ULL},
        {"wideBus", 0x4a8edce25ef47487ULL},
        {"fates", 0xcfb803d77568acb7ULL},
        {"l1d", 0x59a2fd6dc653eb39ULL},
        {"l1i", 0x0b8ea78388a0d541ULL},
        {"l2", 0x45367f8b0a2cad6fULL},
    }};
    expectPinnedDigests(sweep::ExecOptions{}, pinned);
}

TEST(CounterDigests, PlanAllQuickQuiescedMatchesPinnedDigests)
{
    constexpr PinnedDigests pinned = {{
        {"core", 0x59ea7ba7d72c417fULL},
        {"engine", 0x71496b5ad55252f9ULL},
        {"datapath", 0x994042689cde64caULL},
        {"ports", 0xab6893ef244553f1ULL},
        {"wideBus", 0x8d679d3a76404259ULL},
        {"fates", 0x8f46010827453aa0ULL},
        {"l1d", 0xd5a1b81bf35f088cULL},
        {"l1i", 0xc06edd0f781c65a6ULL},
        {"l2", 0xe323cef8a0f9dac7ULL},
    }};
    sweep::ExecOptions opt;
    opt.quiesceInterval = 5'000;
    expectPinnedDigests(opt, pinned);
}

TEST(CounterDigests, PlanAllQuickSampledMatchesPinnedDigests)
{
    constexpr PinnedDigests pinned = {{
        {"core", 0xdec57e323e270d77ULL},
        {"engine", 0x977d208bdf84931eULL},
        {"datapath", 0x5273c98b1f570fa0ULL},
        {"ports", 0xa955c8d29826f799ULL},
        {"wideBus", 0x9e2e75d768d491fdULL},
        {"fates", 0x8469d54bdeeed05aULL},
        {"l1d", 0x6f84af951ff96a49ULL},
        {"l1i", 0x47c519b05a3199e5ULL},
        {"l2", 0x92de0203a228f567ULL},
    }};
    sweep::ExecOptions opt;
    opt.sample.samples = 3;
    expectPinnedDigests(opt, pinned);
}

} // namespace
} // namespace sdv
