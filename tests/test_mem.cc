/**
 * @file
 * Unit tests for the timing memory system: cache tag array, MSHR file,
 * hierarchy latencies and D-cache port arbitration / wide bus.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"
#include "mem/port.hh"

namespace sdv {
namespace {

TEST(Cache, HitAfterFill)
{
    Cache c("t", 1024, 2, 32);
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x11f, false).hit);  // same 32B line
    EXPECT_FALSE(c.access(0x120, false).hit); // next line
}

TEST(Cache, GeometryDerivedFromSize)
{
    Cache c("t", 64 * 1024, 2, 32);
    EXPECT_EQ(c.numSets(), 1024u);
    EXPECT_EQ(c.assoc(), 2u);
    EXPECT_EQ(c.lineBytes(), 32u);
}

TEST(Cache, LruEviction)
{
    // 2 sets, 2 ways, 16B lines -> addresses mapping to set 0 are
    // multiples of 32.
    Cache c("t", 64, 2, 16);
    EXPECT_EQ(c.numSets(), 2u);
    c.access(0x000, false);
    c.access(0x020, false);
    EXPECT_TRUE(c.access(0x000, false).hit); // 0x000 is MRU now
    c.access(0x040, false);                  // evicts 0x020
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x020));
    EXPECT_TRUE(c.probe(0x040));
}

TEST(Cache, EvictionOrderFollowsUseRecency)
{
    // One set of 4 ways (64B cache, 16B lines): every fourth fill must
    // evict exactly the least recently used line, regardless of which
    // way it occupies. Pins the single-pass victim selection.
    Cache c("t", 64, 4, 16);
    ASSERT_EQ(c.numSets(), 1u);
    const Addr a = 0x000, b = 0x010, d = 0x020, e = 0x030;
    for (Addr x : {a, b, d, e})
        c.access(x, false);
    // Refresh a and d; recency (oldest first) is now b, e, a, d.
    EXPECT_TRUE(c.access(a, false).hit);
    EXPECT_TRUE(c.access(d, false).hit);

    c.access(0x040, false); // evicts b (way 1)
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(e));
    c.access(0x050, false); // evicts e (way 3)
    EXPECT_FALSE(c.probe(e));
    EXPECT_TRUE(c.probe(a));
    c.access(0x060, false); // evicts a (way 0)
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(d));
    c.access(0x070, false); // evicts d (way 2)
    EXPECT_FALSE(c.probe(d));
    // The three most recent fills survive.
    EXPECT_TRUE(c.probe(0x040) && c.probe(0x050) && c.probe(0x060));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache c("t", 32, 1, 16); // direct mapped, 2 sets
    EXPECT_FALSE(c.access(0x00, true).hit); // write-allocate, dirty
    const auto res = c.access(0x20, false); // same set, evicts dirty
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, 0x00u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c("t", 32, 1, 16);
    c.access(0x00, false);
    const auto res = c.access(0x20, false);
    EXPECT_FALSE(res.writeback);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c("t", 1024, 2, 32);
    c.access(0x100, false);
    EXPECT_TRUE(c.probe(0x100));
    c.invalidate(0x100);
    EXPECT_FALSE(c.probe(0x100));
}

TEST(Cache, StatsAccumulate)
{
    Cache c("t", 1024, 2, 32);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x40, true);
    EXPECT_EQ(c.stats().readAccesses, 2u);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().writeAccesses, 1u);
    EXPECT_EQ(c.stats().writeMisses, 1u);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 2.0 / 3.0);
}

/** Property sweep over cache geometries: filling N lines that map to
 *  one set keeps exactly `assoc` resident. */
class CacheAssocSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CacheAssocSweep, SetHoldsExactlyAssocLines)
{
    const unsigned assoc = GetParam();
    const unsigned line = 32;
    const unsigned sets = 8;
    Cache c("t", std::uint64_t(sets) * assoc * line, assoc, line);
    ASSERT_EQ(c.numSets(), sets);
    // 2*assoc lines, all mapping to set 0.
    for (unsigned i = 0; i < 2 * assoc; ++i)
        c.access(Addr(i) * sets * line, false);
    unsigned resident = 0;
    for (unsigned i = 0; i < 2 * assoc; ++i)
        if (c.probe(Addr(i) * sets * line))
            ++resident;
    EXPECT_EQ(resident, assoc);
    // The survivors must be the most recently filled ones (LRU).
    for (unsigned i = assoc; i < 2 * assoc; ++i)
        EXPECT_TRUE(c.probe(Addr(i) * sets * line));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheAssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Mshr, AllocateAndLazyRetire)
{
    MshrFile m(2);
    Cycle done = 0;
    EXPECT_TRUE(m.allocate(0x100, 10, 0, done));
    EXPECT_EQ(done, 10u);
    EXPECT_TRUE(m.allocate(0x200, 12, 0, done));
    EXPECT_EQ(m.busyCount(5), 2u);
    // Full at cycle 5.
    EXPECT_FALSE(m.allocate(0x300, 15, 5, done));
    EXPECT_EQ(m.fullStalls(), 1u);
    // After both fills landed, space again.
    EXPECT_TRUE(m.allocate(0x300, 20, 13, done));
}

TEST(Mshr, MergesSameLine)
{
    MshrFile m(1);
    Cycle done = 0;
    EXPECT_TRUE(m.allocate(0x100, 10, 0, done));
    // Same line merges even though the file is full.
    EXPECT_TRUE(m.allocate(0x100, 30, 2, done));
    EXPECT_EQ(done, 10u); // earlier in-flight fill wins
    EXPECT_EQ(m.merges(), 1u);
    EXPECT_TRUE(m.outstanding(0x100, 5));
    EXPECT_FALSE(m.outstanding(0x100, 10));
}

TEST(Hierarchy, LoadLatencies)
{
    MemHierarchyConfig cfg;
    MemHierarchy mh(cfg);
    Cycle done = 0;

    // Cold: L1 miss + L2 miss -> 6 + 18.
    ASSERT_TRUE(mh.loadAccess(0x1000, 0, done));
    EXPECT_EQ(done, 24u);

    // While outstanding, a second access merges to the same completion.
    ASSERT_TRUE(mh.loadAccess(0x1008, 3, done));
    EXPECT_EQ(done, 24u);

    // After the fill: L1 hit, 1 cycle.
    ASSERT_TRUE(mh.loadAccess(0x1000, 30, done));
    EXPECT_EQ(done, 31u);

    // A different line that now hits in L2 (same L2 line? no - pick an
    // address that missed into L2 earlier): cold L2 -> 24 again.
    ASSERT_TRUE(mh.loadAccess(0x2000, 40, done));
    EXPECT_EQ(done, 64u);
}

TEST(Hierarchy, L2HitLatencyAfterL1Eviction)
{
    MemHierarchyConfig cfg;
    // Tiny L1 so we can evict deterministically; keep L2 big.
    cfg.l1dSize = 64; // 1 set x 2 ways x 32B
    cfg.l1dAssoc = 2;
    MemHierarchy mh(cfg);
    Cycle done = 0;
    ASSERT_TRUE(mh.loadAccess(0x1000, 0, done));   // cold: 24
    ASSERT_TRUE(mh.loadAccess(0x2000, 100, done)); // cold: 124
    ASSERT_TRUE(mh.loadAccess(0x3000, 200, done)); // evicts 0x1000
    // 0x1000 is still in L2: L1 miss, L2 hit -> 6 cycles.
    ASSERT_TRUE(mh.loadAccess(0x1000, 300, done));
    EXPECT_EQ(done, 306u);
}

TEST(Hierarchy, FetchLatency)
{
    MemHierarchyConfig cfg;
    MemHierarchy mh(cfg);
    EXPECT_EQ(mh.fetchAccess(0x10000, 0), 24u); // cold
    EXPECT_EQ(mh.fetchAccess(0x10000, 30), 31u); // hit
    EXPECT_EQ(mh.fetchAccess(0x10008, 40), 41u); // same 64B line
}

TEST(Ports, ScalarPortsServeOneWordEach)
{
    DCachePorts ports(2, false, 32);
    ports.beginCycle();
    EXPECT_TRUE(ports.requestLoadWord(0x100).ok);
    EXPECT_TRUE(ports.requestLoadWord(0x108).ok); // same line, new port
    EXPECT_FALSE(ports.requestLoadWord(0x110).ok); // out of ports
    ports.beginCycle();
    EXPECT_TRUE(ports.requestLoadWord(0x110).ok);
    EXPECT_EQ(ports.stats().readAccesses, 3u);
}

TEST(Ports, WidePortMergesSameLine)
{
    DCachePorts ports(1, true, 32);
    ports.beginCycle();
    auto g0 = ports.requestLoadWord(0x100);
    ASSERT_TRUE(g0.ok);
    EXPECT_TRUE(g0.newAccess);
    // Three more words on the same line ride along.
    for (Addr a : {0x108, 0x110, 0x118}) {
        auto g = ports.requestLoadWord(a);
        ASSERT_TRUE(g.ok);
        EXPECT_FALSE(g.newAccess);
        EXPECT_EQ(g.accessId, g0.accessId);
    }
    // Fifth word on the line exceeds the 4-loads-per-access limit and
    // there is no second port.
    EXPECT_FALSE(ports.requestLoadWord(0x104).ok);
    // A different line also fails: no port left.
    EXPECT_FALSE(ports.requestLoadWord(0x200).ok);
    EXPECT_EQ(ports.stats().busyPortCycles, 1u);
}

TEST(Ports, WideMergeDoesNotCrossCycles)
{
    DCachePorts ports(1, true, 32);
    ports.beginCycle();
    EXPECT_TRUE(ports.requestLoadWord(0x100).ok);
    ports.beginCycle();
    auto g = ports.requestLoadWord(0x108);
    ASSERT_TRUE(g.ok);
    EXPECT_TRUE(g.newAccess); // new cycle, new access
    EXPECT_EQ(ports.stats().readAccesses, 2u);
}

TEST(Ports, StoresConsumeWholePort)
{
    DCachePorts ports(1, true, 32);
    ports.beginCycle();
    EXPECT_TRUE(ports.requestStoreWord(0x100).ok);
    EXPECT_FALSE(ports.requestLoadWord(0x100).ok);
    EXPECT_EQ(ports.stats().writeAccesses, 1u);
}

TEST(Ports, OccupancyComputation)
{
    DCachePorts ports(2, false, 32);
    for (int c = 0; c < 10; ++c) {
        ports.beginCycle();
        if (c < 5)
            ports.requestLoadWord(Addr(c) * 64);
    }
    EXPECT_DOUBLE_EQ(ports.stats().occupancy(2), 5.0 / 20.0);
}

TEST(Ports, WideBusLedgerClassifiesUsefulWords)
{
    DCachePorts ports(2, true, 32);
    // Access 1: two demand words.
    ports.beginCycle();
    ports.requestLoadWord(0x100);
    ports.requestLoadWord(0x108);
    // Access 2: one demand + two speculative elements, one later used.
    ports.beginCycle();
    ports.requestLoadWord(0x200);
    const ElemLoadId used = ports.requestLoadWord(0x208, true).elemLoadId();
    const ElemLoadId unused = ports.requestLoadWord(0x210, true).elemLoadId();
    ports.resolveElem(used, true);
    ports.resolveElem(unused, false);
    // Access 3: purely speculative, never used.
    ports.beginCycle();
    ports.requestLoadWord(0x300, /*speculative=*/true);
    // Left unresolved -> counts as unused.

    const WideBusBreakdown b = ports.wideBusBreakdown();
    EXPECT_EQ(b.totalReads, 3u);
    EXPECT_EQ(b.usefulWords[2], 2u); // accesses 1 and 2
    EXPECT_EQ(b.usefulWords[0], 1u); // access 3
    EXPECT_DOUBLE_EQ(b.unusedFraction(), 1.0 / 3.0);
}

} // namespace
} // namespace sdv
