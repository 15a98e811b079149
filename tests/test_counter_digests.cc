/**
 * @file
 * Pins every statistics counter of the `--plan all --quick` sweep (171
 * full runs, every figure grid over the quick workloads), not only the
 * few that the BENCH_* records carry. Each of the nine statistics
 * blocks (statsBlocks) is folded over all jobs in plan order into one
 * FNV-1a digest, skipping only the two event-skip meta-counters that
 * record how the cycles were simulated (eventSkipCounters), so a change
 * that moves any other counter of any job fails here and names the
 * block it moved.
 *
 * Regenerating the digests when a change moves statistics on purpose:
 * run `./build/test_counter_digests`, and replace the `pinned` table
 * with the values the failure messages print (each names its block).
 * List the blocks that moved, and why, in the change's notes.
 */

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "sweep/executor.hh"
#include "sweep/plan.hh"
#include "expect_same_stats.hh"

namespace sdv {
namespace {

/** One block's pinned digest. */
struct PinnedDigest
{
    std::string_view block;
    std::uint64_t digest;
};

/** The digests of `--plan all --quick`, in statsBlocks order. */
constexpr std::array<PinnedDigest, 9> pinned = {{
    {"core", 0x47e6c0f32f70f1fdULL},
    {"engine", 0xf6be3f7229303059ULL},
    {"datapath", 0xe8a8ebbec8aa63dcULL},
    {"ports", 0xa095810b14c560a8ULL},
    {"wideBus", 0x4a8edce25ef47487ULL},
    {"fates", 0x13a0a5288b097b37ULL},
    {"l1d", 0x59a2fd6dc653eb39ULL},
    {"l1i", 0x0b8ea78388a0d541ULL},
    {"l2", 0x45367f8b0a2cad6fULL},
}};

TEST(CounterDigests, PlanAllQuickMatchesPinnedDigests)
{
    sweep::PlanOptions popt;
    popt.quick = true;
    const sweep::SweepPlan plan = sweep::buildPlan("all", popt);
    sweep::ExecOptions opt;
    opt.jobs = 3;
    const std::vector<sweep::RunOutcome> outcomes =
        sweep::runPlan(plan, opt);
    ASSERT_EQ(outcomes.size(), 171u);

    std::array<std::uint64_t, pinned.size()> digests;
    digests.fill(1469598103934665603ULL); // the FNV-1a offset basis
    for (const sweep::RunOutcome &o : outcomes) {
        ASSERT_TRUE(o.res.finished) << o.workload << " " << o.configKey;
        const auto blocks = statsBlocks(o.res);
        ASSERT_EQ(blocks.size(), pinned.size());
        for (std::size_t k = 0; k < blocks.size(); ++k)
            for (std::size_t i = 0; i < blocks[k].words.size(); ++i)
                if (!listsCounter(eventSkipCounters, blocks[k].name, i))
                    digests[k] = fnv1a(
                        reinterpret_cast<const std::uint8_t *>(
                            &blocks[k].words[i]),
                        sizeof(std::uint64_t), digests[k]);
    }

    const auto blocks = statsBlocks(outcomes.front().res);
    for (std::size_t k = 0; k < pinned.size(); ++k) {
        ASSERT_EQ(pinned[k].block, blocks[k].name);
        char got[19];
        std::snprintf(got, sizeof(got), "0x%016" PRIx64, digests[k]);
        EXPECT_EQ(digests[k], pinned[k].digest)
            << "statistics block \"" << pinned[k].block
            << "\" moved; its digest is now " << got << "ULL";
    }
}

} // namespace
} // namespace sdv
