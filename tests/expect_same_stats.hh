/**
 * @file
 * The every-counter comparison behind the equivalence tests (trace vs
 * interpreter, event skip vs tick, restore vs continue, instrumented
 * vs bare): two runs must agree on their summary and on every u64
 * counter of every statistics block (statsBlocks), not on a
 * hand-picked list that a new counter silently escapes.
 */

#ifndef SDV_TESTS_EXPECT_SAME_STATS_HH
#define SDV_TESTS_EXPECT_SAME_STATS_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace sdv {

/** One counter: its statistics block and u64 word offset within it. */
struct StatsCounter
{
    std::string_view block;
    std::size_t word;
};

/** The event-skip meta-counters. They record how the cycles were
 *  simulated, so event skip vs tick is the one equivalence allowed to
 *  differ in them. */
inline const std::vector<StatsCounter> eventSkipCounters = {
    {"core", offsetof(CoreStats, eventSkipJumps) / sizeof(std::uint64_t)},
    {"core",
     offsetof(CoreStats, eventSkippedCycles) / sizeof(std::uint64_t)},
};

/** @return true when @p counters lists word @p word of @p block. */
inline bool
listsCounter(const std::vector<StatsCounter> &counters,
             std::string_view block, std::size_t word)
{
    return std::any_of(counters.begin(), counters.end(),
                       [&](const StatsCounter &c) {
                           return c.block == block && c.word == word;
                       });
}

/** Expect @p a and @p b to agree on every statistic but @p exempt; a
 *  mismatch is reported as its block and word offset. */
inline void
expectSameStats(const SimResult &a, const SimResult &b,
                const std::string &label,
                const std::vector<StatsCounter> &exempt = {})
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.samplesMeasured, b.samplesMeasured);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);

    const auto sa = statsBlocks(a);
    const auto sb = statsBlocks(b);
    for (std::size_t k = 0; k < sa.size(); ++k) {
        for (std::size_t i = 0; i < sa[k].words.size(); ++i) {
            if (sa[k].words[i] == sb[k].words[i] ||
                listsCounter(exempt, sa[k].name, i))
                continue;
            ADD_FAILURE() << sa[k].name << " word " << i << ": "
                          << sa[k].words[i] << " vs " << sb[k].words[i];
        }
    }
}

} // namespace sdv

#endif // SDV_TESTS_EXPECT_SAME_STATS_HH
