/**
 * @file
 * Unit tests for the branch prediction structures: gshare, BTB, RAS.
 */

#include <gtest/gtest.h>

#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "branch/ras.hh"

namespace sdv {
namespace {

TEST(Gshare, LearnsAlwaysTaken)
{
    Gshare g(1024, 8);
    const Addr pc = 0x10000;
    // The history register shifts on every update, so the steady-state
    // entry (history == all ones) only starts training once the history
    // has saturated; train well past that point.
    for (int i = 0; i < 24; ++i)
        g.update(pc, true);
    EXPECT_TRUE(g.predict(pc));
}

TEST(Gshare, LearnsAlwaysNotTaken)
{
    Gshare g(1024, 8);
    const Addr pc = 0x10000;
    for (int i = 0; i < 8; ++i)
        g.update(pc, false);
    EXPECT_FALSE(g.predict(pc));
}

TEST(Gshare, LearnsAlternatingPatternThroughHistory)
{
    // A strict T/NT alternation is perfectly predictable once the
    // history register disambiguates the two phases.
    Gshare g(64 * 1024, 16);
    const Addr pc = 0x20000;
    bool taken = false;
    // Warm up.
    for (int i = 0; i < 200; ++i) {
        g.update(pc, taken);
        taken = !taken;
    }
    // Measure.
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        if (g.predict(pc) == taken)
            ++correct;
        g.update(pc, taken);
        taken = !taken;
    }
    EXPECT_GE(correct, 95);
}

TEST(Gshare, HistoryShiftsAndMasks)
{
    Gshare g(256, 4);
    g.update(0, true);
    g.update(0, true);
    g.update(0, false);
    g.update(0, true);
    EXPECT_EQ(g.history(), 0b1101u);
    g.update(0, true);
    EXPECT_EQ(g.history(), 0b1011u); // 4-bit mask drops the oldest bit
}

/** Property sweep: table sizes and history lengths stay consistent. */
class GshareGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(GshareGeometry, BiasedBranchIsLearnedEverywhere)
{
    const auto [entries, hist] = GetParam();
    Gshare g(entries, hist);
    // 32 distinct always-taken branches.
    for (int round = 0; round < 6; ++round)
        for (Addr pc = 0x1000; pc < 0x1000 + 32 * 8; pc += 8)
            g.update(pc, true);
    int correct = 0;
    for (Addr pc = 0x1000; pc < 0x1000 + 32 * 8; pc += 8)
        if (g.predict(pc))
            ++correct;
    // With aliasing some entries may fight, but a strong majority must
    // be learned for any geometry.
    EXPECT_GE(correct, 28);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GshareGeometry,
    ::testing::Combine(::testing::Values(256u, 4096u, 65536u),
                       ::testing::Values(4u, 8u, 16u)));

TEST(Btb, MissThenHit)
{
    Btb btb(64, 2);
    Addr target = 0;
    EXPECT_FALSE(btb.lookup(0x1000, target));
    btb.update(0x1000, 0x2000);
    ASSERT_TRUE(btb.lookup(0x1000, target));
    EXPECT_EQ(target, 0x2000u);
    EXPECT_EQ(btb.hits(), 1u);
    EXPECT_EQ(btb.lookups(), 2u);
}

TEST(Btb, UpdateOverwritesTarget)
{
    Btb btb(64, 2);
    btb.update(0x1000, 0x2000);
    btb.update(0x1000, 0x3000);
    Addr target = 0;
    ASSERT_TRUE(btb.lookup(0x1000, target));
    EXPECT_EQ(target, 0x3000u);
}

TEST(Btb, LruEvictionWithinSet)
{
    Btb btb(1, 2); // single set, 2 ways
    btb.update(0x1000, 0xa);
    btb.update(0x2000, 0xb);
    Addr t;
    ASSERT_TRUE(btb.lookup(0x1000, t)); // touch 0x1000: now MRU
    btb.update(0x3000, 0xc);            // evicts 0x2000
    EXPECT_TRUE(btb.lookup(0x1000, t));
    EXPECT_FALSE(btb.lookup(0x2000, t));
    EXPECT_TRUE(btb.lookup(0x3000, t));
}

TEST(Ras, PushPopOrder)
{
    ReturnAddressStack ras(4);
    ras.push(0x100);
    ras.push(0x200);
    Addr out = 0;
    ASSERT_TRUE(ras.pop(out));
    EXPECT_EQ(out, 0x200u);
    ASSERT_TRUE(ras.pop(out));
    EXPECT_EQ(out, 0x100u);
    EXPECT_FALSE(ras.pop(out));
}

TEST(Ras, OverflowWrapsKeepingNewest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites 1
    Addr out = 0;
    ASSERT_TRUE(ras.pop(out));
    EXPECT_EQ(out, 3u);
    ASSERT_TRUE(ras.pop(out));
    EXPECT_EQ(out, 2u);
    EXPECT_FALSE(ras.pop(out));
}

} // namespace
} // namespace sdv
