/**
 * @file
 * Unit tests for the hot-path kernel structures: sparse memory
 * cross-page / unaligned / bulk accesses (with the MRU page cache), the
 * pending-store overlay (interval early-exits and word-at-a-time
 * masking) replayed against a naive byte-wise reference model, and the
 * pooled ROB ring buffer.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "arch/memory.hh"
#include "common/histogram.hh"
#include "common/random.hh"
#include "common/ring_pool.hh"
#include "core/lsq.hh"
#include "core/store_overlay.hh"
#include "vector/vreg_file.hh"
#include "vector/vrmt.hh"

namespace sdv {
namespace {

// --- SparseMemory ----------------------------------------------------------

TEST(SparseMemoryHot, UnalignedSingleAndCrossPageAllSizes)
{
    const Addr page = SparseMemory::pageBytes;
    // Offsets chosen so every size is exercised aligned, unaligned
    // within a page, and straddling the page boundary.
    const Addr bases[] = {0x100, 0x103, page - 1, page - 3, page - 7,
                          3 * page - 5};
    const std::uint64_t pattern = 0x1122334455667788ULL;
    for (Addr base : bases) {
        for (unsigned size : {1u, 2u, 4u, 8u}) {
            SparseMemory m;
            m.write(base, pattern, size);
            const std::uint64_t mask =
                size == 8 ? ~std::uint64_t(0)
                          : (std::uint64_t(1) << (8 * size)) - 1;
            EXPECT_EQ(m.read(base, size), pattern & mask)
                << "base=" << base << " size=" << size;
            // Bytes readable individually in little-endian order.
            for (unsigned i = 0; i < size; ++i)
                EXPECT_EQ(m.read(base + i, 1),
                          (pattern >> (8 * i)) & 0xff);
        }
    }
}

TEST(SparseMemoryHot, MruCacheSurvivesInterleavedPagesAndClear)
{
    SparseMemory mem;
    const Addr page = SparseMemory::pageBytes;
    // Ping-pong between pages so the MRU entry is repeatedly replaced.
    for (unsigned round = 0; round < 4; ++round)
        for (Addr p = 0; p < 8; ++p)
            mem.write64(p * page + 8 * round, p * 1000 + round);
    for (unsigned round = 0; round < 4; ++round)
        for (Addr p = 0; p < 8; ++p)
            EXPECT_EQ(mem.read64(p * page + 8 * round), p * 1000 + round);
    mem.clear();
    EXPECT_EQ(mem.numPages(), 0u);
    // The cleared cache must not serve stale pages.
    EXPECT_EQ(mem.read64(0), 0u);
    mem.write64(0, 42);
    EXPECT_EQ(mem.read64(0), 42u);
}

TEST(SparseMemoryHot, ReadAfterWriteMaterializesBehindConstReads)
{
    SparseMemory mem;
    // A read of an absent page must not poison the cache: the write
    // that materializes the page afterwards has to become visible.
    EXPECT_EQ(mem.read64(0x5000), 0u);
    mem.write64(0x5000, 7);
    EXPECT_EQ(mem.read64(0x5000), 7u);
}

TEST(SparseMemoryHot, BulkBytesSpanManyPages)
{
    SparseMemory mem;
    const Addr base = SparseMemory::pageBytes - 100;
    std::vector<std::uint8_t> data(3 * SparseMemory::pageBytes);
    Random rng(7);
    for (auto &b : data)
        b = std::uint8_t(rng.next());

    mem.writeBytes(base, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size() + 16, 0xaa);
    // Read a window that starts before the written range (zero fill)
    // and covers it completely.
    mem.readBytes(base - 8, out.data(), out.size());
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], 0u) << "leading zero fill byte " << i;
    EXPECT_EQ(std::memcmp(out.data() + 8, data.data(), data.size()), 0);
    for (size_t i = data.size() + 8; i < out.size(); ++i)
        EXPECT_EQ(out[i], 0u) << "trailing zero fill byte " << i;
}

TEST(SparseMemoryHot, RandomOpsMatchByteReference)
{
    // Equivalence against a naive byte map across random sizes,
    // alignments and page boundaries.
    SparseMemory mem;
    std::vector<std::uint8_t> ref(16 * SparseMemory::pageBytes, 0);
    Random rng(123);
    const unsigned sizes[] = {1, 2, 4, 8};
    for (unsigned op = 0; op < 20000; ++op) {
        const unsigned size = sizes[rng.below(4)];
        const Addr addr = rng.below(ref.size() - 8);
        if (rng.chancePercent(50)) {
            const std::uint64_t val = rng.next();
            mem.write(addr, val, size);
            for (unsigned i = 0; i < size; ++i)
                ref[addr + i] = std::uint8_t(val >> (8 * i));
        } else {
            std::uint64_t expect = 0;
            for (unsigned i = 0; i < size; ++i)
                expect |= std::uint64_t(ref[addr + i]) << (8 * i);
            ASSERT_EQ(mem.read(addr, size), expect)
                << "addr=" << addr << " size=" << size;
        }
    }
}

// --- PendingStoreOverlay ---------------------------------------------------

/** Naive reference: apply pre-images youngest-first, byte by byte. */
std::uint64_t
naiveOverlay(const std::vector<PendingStore> &stores, std::uint64_t val,
             Addr addr, unsigned size)
{
    for (auto it = stores.rbegin(); it != stores.rend(); ++it) {
        for (unsigned b = 0; b < size; ++b) {
            const Addr byte_addr = addr + b;
            if (byte_addr >= it->addr &&
                byte_addr < it->addr + it->size) {
                const unsigned sidx = unsigned(byte_addr - it->addr);
                const std::uint64_t pre =
                    (it->preValue >> (8 * sidx)) & 0xff;
                val &= ~(0xffULL << (8 * b));
                val |= pre << (8 * b);
            }
        }
    }
    return val;
}

TEST(StoreOverlay, EmptyAndDisjointPassThrough)
{
    PendingStoreOverlay ov;
    EXPECT_EQ(ov.overlay(0xdeadbeef, 0x1000, 4), 0xdeadbeefULL);
    ov.push(0x2000, 8, 0x1111111111111111ULL);
    // Entirely below and entirely above the store's range.
    EXPECT_EQ(ov.overlay(0x42, 0x1ff8, 8), 0x42ULL);
    EXPECT_EQ(ov.overlay(0x42, 0x2008, 8), 0x42ULL);
    // Adjacent but not overlapping.
    EXPECT_EQ(ov.overlay(0x42, 0x1ffc, 4), 0x42ULL);
}

TEST(StoreOverlay, OldestPreImageWinsPerByte)
{
    PendingStoreOverlay ov;
    ov.push(0x100, 8, 0x0101010101010101ULL); // oldest
    ov.push(0x104, 8, 0x0202020202020202ULL); // younger, overlaps tail
    // Bytes 0x100..0x107: all covered by the oldest store; its
    // pre-image is the committed state there.
    EXPECT_EQ(ov.overlay(0xffffffffffffffffULL, 0x100, 8),
              0x0101010101010101ULL);
    // Bytes 0x108..0x10b: only the younger store covers them. Bytes
    // beyond the 4-byte load size pass through untouched.
    EXPECT_EQ(ov.overlay(0, 0x108, 4), 0x02020202ULL);
}

TEST(StoreOverlay, FifoDrainResetsHull)
{
    PendingStoreOverlay ov;
    ov.push(0x100, 8, 1);
    ov.push(0x200, 4, 2);
    EXPECT_EQ(ov.size(), 2u);
    EXPECT_EQ(ov.front().addr, 0x100u);
    ov.popFront();
    ov.popFront();
    EXPECT_TRUE(ov.empty());
    // After draining, loads in the old range must pass through again.
    EXPECT_EQ(ov.overlay(7, 0x100, 8), 7ULL);
}

TEST(StoreOverlay, RandomInFlightSetsMatchNaiveModel)
{
    Random rng(99);
    for (unsigned trial = 0; trial < 300; ++trial) {
        PendingStoreOverlay ov;
        std::vector<PendingStore> ref;
        // Random in-flight store set, clustered so overlaps are common.
        const unsigned n = 1 + unsigned(rng.below(12));
        for (unsigned i = 0; i < n; ++i) {
            const Addr addr = 0x1000 + rng.below(64);
            const unsigned size = rng.chancePercent(50) ? 8 : 4;
            const std::uint64_t pre = rng.next();
            ov.push(addr, size, pre);
            ref.push_back({addr, size, pre});
        }
        // Probe loads around and inside the cluster.
        for (unsigned probe = 0; probe < 200; ++probe) {
            const Addr addr = 0xff0 + rng.below(0x90);
            const unsigned size = rng.chancePercent(50) ? 8 : 4;
            const std::uint64_t base = rng.next();
            ASSERT_EQ(ov.overlay(base, addr, size),
                      naiveOverlay(ref, base, addr, size))
                << "trial=" << trial << " addr=" << addr
                << " size=" << size;
        }
        // Drain a prefix (stores commit in order) and re-check.
        const unsigned drop = unsigned(rng.below(n + 1));
        for (unsigned i = 0; i < drop; ++i)
            ov.popFront();
        ref.erase(ref.begin(), ref.begin() + drop);
        for (unsigned probe = 0; probe < 50; ++probe) {
            const Addr addr = 0xff0 + rng.below(0x90);
            const std::uint64_t base = rng.next();
            ASSERT_EQ(ov.overlay(base, addr, 8),
                      naiveOverlay(ref, base, addr, 8));
        }
    }
}

// --- RingPool --------------------------------------------------------------

struct PoolItem
{
    int value = -1;
    bool live = false;

    void
    reset()
    {
        value = -1;
        live = false;
    }
};

TEST(RingPool, FifoOrderAcrossWraparound)
{
    RingPool<PoolItem> pool(4);
    EXPECT_TRUE(pool.empty());
    EXPECT_EQ(pool.capacity(), 4u);

    int next = 0;
    // Repeatedly push 3 / pop 2 so head wraps several times.
    for (unsigned round = 0; round < 10; ++round) {
        while (pool.size() < 3) {
            PoolItem &it = pool.emplaceBack();
            EXPECT_EQ(it.value, -1) << "slot not recycled";
            it.value = next++;
            it.live = true;
        }
        const int oldest = pool.front().value;
        EXPECT_EQ(pool[0].value, oldest);
        EXPECT_EQ(pool[pool.size() - 1].value, next - 1);
        pool.popFront();
        EXPECT_EQ(pool.front().value, oldest + 1);
        pool.popFront();
    }
}

TEST(RingPool, SlotAddressesStableWhileLive)
{
    RingPool<PoolItem> pool(8);
    std::vector<PoolItem *> ptrs;
    for (int i = 0; i < 8; ++i) {
        PoolItem &it = pool.emplaceBack();
        it.value = i;
        ptrs.push_back(&it);
    }
    EXPECT_TRUE(pool.full());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ptrs[size_t(i)]->value, i);
    // Popping the front keeps the remaining entries in place.
    pool.popFront();
    for (int i = 1; i < 8; ++i) {
        EXPECT_EQ(&pool[size_t(i - 1)], ptrs[size_t(i)]);
        EXPECT_EQ(pool[size_t(i - 1)].value, i);
    }
}

TEST(RingPool, PopBackDiscardsTentativeEntry)
{
    RingPool<PoolItem> pool(2);
    pool.emplaceBack().value = 1;
    pool.emplaceBack().value = 2;
    pool.popBack();
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.back().value, 1);
    // The discarded slot is recycled on the next claim.
    EXPECT_EQ(pool.emplaceBack().value, -1);
    pool.clear();
    EXPECT_TRUE(pool.empty());
}

// --- LSQ store-to-load forwarding -----------------------------------------

namespace lsqtest {

DynInst
makeMem(InstSeqNum seq, Opcode op, Addr addr, unsigned size,
        bool completed)
{
    DynInst d;
    d.seq = seq;
    d.rec.inst = Instruction(op, 1, 2, 3, 0);
    d.rec.isMem = true;
    d.rec.isStore = d.rec.inst.isStore();
    d.rec.addr = addr;
    d.rec.size = size;
    d.completed = completed;
    return d;
}

} // namespace lsqtest

TEST(LsqForwarding, LoadSpanningTwoAdjacentCompletedStoresForwards)
{
    using lsqtest::makeMem;
    LoadStoreQueue lsq(8);
    DynInst s1 = makeMem(1, Opcode::STQ, 0x1000, 8, true);
    DynInst s2 = makeMem(2, Opcode::STQ, 0x1008, 8, true);
    DynInst ld = makeMem(3, Opcode::LDQ, 0x1004, 8, false);
    lsq.insert(&s1);
    lsq.insert(&s2);
    lsq.insert(&ld);
    // Neither store covers the load alone; together they do. The old
    // nearest-store-only rule wrongly stalled this load.
    EXPECT_EQ(lsq.checkLoad(&ld), LoadCheck::Forward);
}

TEST(LsqForwarding, CombinedCoverageStallsWhileAnyNeededStoreIsPending)
{
    using lsqtest::makeMem;
    LoadStoreQueue lsq(8);
    DynInst s1 = makeMem(1, Opcode::STQ, 0x1000, 8, true);
    DynInst s2 = makeMem(2, Opcode::STQ, 0x1008, 8, false); // in flight
    DynInst ld = makeMem(3, Opcode::LDQ, 0x1004, 8, false);
    lsq.insert(&s1);
    lsq.insert(&s2);
    lsq.insert(&ld);
    EXPECT_EQ(lsq.checkLoad(&ld), LoadCheck::Stall);
    s2.completed = true;
    EXPECT_EQ(lsq.checkLoad(&ld), LoadCheck::Forward);
}

TEST(LsqForwarding, NearestStorePerByteDecides)
{
    using lsqtest::makeMem;
    LoadStoreQueue lsq(8);
    // The older store is incomplete, but every byte it would supply is
    // re-written by the younger completed store: the load only needs
    // the younger one.
    DynInst s1 = makeMem(1, Opcode::STQ, 0x2000, 8, false);
    DynInst s2 = makeMem(2, Opcode::STQ, 0x2000, 8, true);
    DynInst ld = makeMem(3, Opcode::LDQ, 0x2000, 8, false);
    lsq.insert(&s1);
    lsq.insert(&s2);
    lsq.insert(&ld);
    EXPECT_EQ(lsq.checkLoad(&ld), LoadCheck::Forward);

    // Conversely a younger *incomplete* store owning any needed byte
    // stalls the load even when an older completed store covers it.
    LoadStoreQueue lsq2(8);
    DynInst t1 = makeMem(1, Opcode::STQ, 0x3000, 8, true);
    DynInst t2 = makeMem(2, Opcode::STL, 0x3004, 4, false);
    DynInst ld2 = makeMem(3, Opcode::LDQ, 0x3000, 8, false);
    lsq2.insert(&t1);
    lsq2.insert(&t2);
    lsq2.insert(&ld2);
    EXPECT_EQ(lsq2.checkLoad(&ld2), LoadCheck::Stall);
}

TEST(LsqForwarding, PartialCoverageFromMemoryStalls)
{
    using lsqtest::makeMem;
    LoadStoreQueue lsq(8);
    // Half the load comes from a pending store, half from the cache: a
    // mixed source cannot forward and must wait for the store to drain.
    DynInst s1 = makeMem(1, Opcode::STL, 0x4000, 4, true);
    DynInst ld = makeMem(2, Opcode::LDQ, 0x4000, 8, false);
    lsq.insert(&s1);
    lsq.insert(&ld);
    EXPECT_EQ(lsq.checkLoad(&ld), LoadCheck::Stall);

    // Fully disjoint load: straight to the cache.
    DynInst ld2 = makeMem(3, Opcode::LDQ, 0x5000, 8, false);
    lsq.insert(&ld2);
    EXPECT_EQ(lsq.checkLoad(&ld2), LoadCheck::Ready);
}

// --- Histogram under/overflow ---------------------------------------------

TEST(HistogramFlow, NegativeSamplesLandInUnderflowNotOverflow)
{
    Histogram h(4);
    h.sample(-1);
    h.sample(-100, 2);
    h.sample(0);
    h.sample(3);
    h.sample(4);  // first out-of-range above
    h.sample(99, 3);
    EXPECT_EQ(h.underflow(), 3u);
    EXPECT_EQ(h.overflow(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.total(), 9u);
    EXPECT_DOUBLE_EQ(h.overflowFraction(), 4.0 / 9.0);
}

TEST(HistogramFlow, ResetClearsUnderflow)
{
    Histogram a(4);
    a.sample(-5);
    a.sample(2);
    a.sample(10);
    EXPECT_EQ(a.underflow(), 1u);
    a.reset();
    EXPECT_EQ(a.underflow(), 0u);
    EXPECT_EQ(a.overflow(), 0u);
    EXPECT_EQ(a.total(), 0u);
}

// --- VecRegFile free list / wake events (PR 5) -----------------------------

TEST(VecRegFreeList, AllocatesLowestFreeIndexAndRecycles)
{
    VecRegFile vrf(8, 4);
    // Fresh file: ascending indices.
    std::vector<VecRegRef> refs;
    for (unsigned i = 0; i < 8; ++i) {
        refs.push_back(vrf.allocate(0));
        ASSERT_TRUE(refs.back().valid());
        EXPECT_EQ(refs.back().reg, VecRegId(i));
    }
    EXPECT_EQ(vrf.numFree(), 0u);
    // Exhausted with nothing reclaimable: allocation fails.
    EXPECT_FALSE(vrf.allocate(0).valid());
    EXPECT_EQ(vrf.allocFailures(), 1u);

    // Free 5 and 2 (kill + sweep); the next allocations take the
    // lowest free index first, with fresh generations.
    for (VecRegId id : {VecRegId(5), VecRegId(2)}) {
        vrf.kill(refs[id]);
        EXPECT_TRUE(vrf.isKilled(refs[id]));
    }
    EXPECT_TRUE(vrf.sweepPending());
    EXPECT_EQ(vrf.sweepReleases(0), 2u);
    EXPECT_FALSE(vrf.sweepPending());
    EXPECT_EQ(vrf.numFree(), 2u);

    const VecRegRef a = vrf.allocate(0);
    EXPECT_EQ(a.reg, VecRegId(2));
    EXPECT_NE(a.gen, refs[2].gen);
    EXPECT_FALSE(vrf.isLive(refs[2])); // stale ref stays stale
    EXPECT_TRUE(vrf.isLive(a));
    EXPECT_EQ(vrf.allocate(0).reg, VecRegId(5));
}

TEST(VecRegFreeList, LazyCond2ReclaimsUnderPressureOnly)
{
    VecRegFile vrf(2, 4);
    const VecRegRef a = vrf.allocate(/*mrbb=*/0x100);
    const VecRegRef b = vrf.allocate(/*mrbb=*/0x100);
    // a: all elements computed, none validated — condition-2 eligible
    // once its loop terminates (GMRBB moves on).
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(a, e, e);
    vrf.sweepReleases(0x100); // condition 1 does not apply: not freed
    EXPECT_TRUE(vrf.isLive(a));

    // Pressure with GMRBB still at the allocating loop: no reclaim.
    EXPECT_FALSE(vrf.allocate(0x100).valid());
    EXPECT_TRUE(vrf.isLive(a));

    // Pressure after the loop terminated: a is stolen, b (elements
    // not computed) is not.
    const VecRegRef c = vrf.allocate(0x200);
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(c.reg, a.reg);
    EXPECT_FALSE(vrf.isLive(a));
    EXPECT_TRUE(vrf.isLive(b));
    EXPECT_EQ(vrf.fateStats().releasedCond2, 1u);
}

TEST(VecRegFateAttribution, LifetimesAndReleaseCauses)
{
    VecRegFile vrf(4, 4);
    vrf.setClock(100);
    const VecRegRef a = vrf.allocate(0);
    for (unsigned e = 0; e < 4; ++e) {
        vrf.setData(a, e, e);
        vrf.setValid(a, e);
        vrf.setFree(a, e);
    }
    vrf.setClock(140);
    EXPECT_EQ(vrf.sweepReleases(0), 1u); // condition 1
    const VecRegFateStats &f = vrf.fateStats();
    EXPECT_EQ(f.releasedCond1, 1u);
    EXPECT_EQ(f.lifetimeCycles, 40u);
    EXPECT_DOUBLE_EQ(f.avgLifetimeCycles(), 40.0);

    const VecRegRef b = vrf.allocate(0);
    vrf.kill(b);
    vrf.setClock(150);
    EXPECT_EQ(vrf.sweepReleases(0), 1u);
    EXPECT_EQ(vrf.fateStats().releasedKilled, 1u);

    vrf.allocate(0);
    vrf.releaseAll();
    EXPECT_EQ(vrf.fateStats().releasedBulk, 1u);
    EXPECT_EQ(vrf.fateStats().regsReleased, 3u);
}

// --- VRMT context-switch invalidation --------------------------------------

TEST(Vrmt, InvalidateAllEmptiesTheTableAndWaysRefill)
{
    Vrmt vrmt(16, 2);
    VrmtEntry e;
    e.valid = true;
    for (Addr pc = 0x1000; pc < 0x1000 + 16 * 8; pc += 8) {
        e.pc = pc;
        vrmt.install(e);
    }
    EXPECT_EQ(vrmt.occupancy(), 16u);

    vrmt.invalidateAll();
    EXPECT_EQ(vrmt.occupancy(), 0u);
    EXPECT_EQ(vrmt.lookup(Addr(0x1000)), nullptr);
    EXPECT_EQ(vrmt.lookup(Addr(0x1008)), nullptr);

    // Invalidated ways are reused by install(), and replacing the
    // same pc keeps exactly one valid entry for it.
    e.pc = 0x1000;
    e.offset = 3;
    vrmt.install(e);
    ASSERT_NE(vrmt.lookup(Addr(0x1000)), nullptr);
    e.offset = 4;
    vrmt.install(e); // replace in place
    ASSERT_NE(vrmt.lookup(Addr(0x1000)), nullptr);
    EXPECT_EQ(vrmt.lookup(Addr(0x1000))->offset, 4u);
    EXPECT_EQ(vrmt.occupancy(), 1u);

    // Repeated quiesces keep working.
    vrmt.invalidateAll();
    EXPECT_EQ(vrmt.occupancy(), 0u);
    vrmt.install(e);
    EXPECT_EQ(vrmt.occupancy(), 1u);
}

} // namespace
} // namespace sdv
