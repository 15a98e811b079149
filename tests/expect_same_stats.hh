/**
 * @file
 * The every-counter comparison behind the equivalence tests (trace vs
 * interpreter, restore vs continue, instrumented vs bare): two runs
 * must agree on their summary and on every u64 counter of every
 * statistics block (statsBlocks), not on a hand-picked list that a new
 * counter silently escapes.
 */

#ifndef SDV_TESTS_EXPECT_SAME_STATS_HH
#define SDV_TESTS_EXPECT_SAME_STATS_HH

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace sdv {

/** Expect @p a and @p b to agree on every statistic; a mismatch is
 *  reported as its block and word offset. */
inline void
expectSameStats(const SimResult &a, const SimResult &b,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);

    const auto sa = statsBlocks(a);
    const auto sb = statsBlocks(b);
    for (std::size_t k = 0; k < sa.size(); ++k)
        for (std::size_t i = 0; i < sa[k].words.size(); ++i)
            if (sa[k].words[i] != sb[k].words[i])
                ADD_FAILURE() << sa[k].name << " word " << i << ": "
                              << sa[k].words[i] << " vs "
                              << sb[k].words[i];
}

} // namespace sdv

#endif // SDV_TESTS_EXPECT_SAME_STATS_HH
