/**
 * @file
 * Unit tests for the vectorization structures: Table of Loads, VRMT,
 * vector register file (V/R/U/F flags and both freeing conditions) and
 * the vector datapath.
 */

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "vector/datapath.hh"
#include "vector/table_of_loads.hh"
#include "vector/vreg_file.hh"
#include "vector/vrmt.hh"

namespace sdv {
namespace {

// --- Table of Loads --------------------------------------------------------

TEST(TableOfLoads, SpawnsAfterTwoStrideRepeats)
{
    TableOfLoads tl;
    const Addr pc = 0x10000;
    EXPECT_FALSE(tl.observe(pc, 1000).spawn); // install
    EXPECT_FALSE(tl.observe(pc, 1008).spawn); // stride 8, conf 0
    EXPECT_FALSE(tl.observe(pc, 1016).spawn); // conf 1
    const TlObservation o = tl.observe(pc, 1024);
    EXPECT_TRUE(o.spawn); // conf 2
    EXPECT_EQ(o.stride, 8);
}

TEST(TableOfLoads, Stride0SpawnsOneObservationEarlier)
{
    // The install initializes the stride field to 0, so a stride-0
    // load's second instance already matches (Figure 4 semantics).
    TableOfLoads tl;
    const Addr pc = 0x10000;
    EXPECT_FALSE(tl.observe(pc, 500).spawn);
    EXPECT_FALSE(tl.observe(pc, 500).spawn); // conf 1
    EXPECT_TRUE(tl.observe(pc, 500).spawn);  // conf 2
}

TEST(TableOfLoads, StrideChangeResetsConfidence)
{
    TableOfLoads tl;
    const Addr pc = 0x20000;
    tl.observe(pc, 0);
    tl.observe(pc, 8);
    tl.observe(pc, 16);
    EXPECT_TRUE(tl.observe(pc, 24).spawn);
    EXPECT_FALSE(tl.observe(pc, 100).spawn); // broken: stride now 76
    EXPECT_FALSE(tl.observe(pc, 108).spawn); // stride 8 again, conf 0
    EXPECT_FALSE(tl.observe(pc, 116).spawn); // conf 1
    EXPECT_TRUE(tl.observe(pc, 124).spawn);  // conf 2
}

TEST(TableOfLoads, ResetConfidenceForcesRelearning)
{
    TableOfLoads tl;
    const Addr pc = 0x30000;
    tl.observe(pc, 0);
    tl.observe(pc, 8);
    tl.observe(pc, 16);
    EXPECT_TRUE(tl.observe(pc, 24).spawn);
    tl.resetConfidence(pc);
    EXPECT_FALSE(tl.observe(pc, 32).spawn); // conf 1
    EXPECT_TRUE(tl.observe(pc, 40).spawn);  // conf 2
}

TEST(TableOfLoads, SnapshotRestoreRoundTrip)
{
    TableOfLoads tl;
    const Addr pc = 0x40000;
    tl.observe(pc, 0);
    tl.observe(pc, 8);
    const TlSnapshot snap = tl.snapshot(pc);
    tl.observe(pc, 4000); // disturb
    tl.restore(pc, snap);
    // State back to conf 1, last addr 8: two more repeats spawn.
    EXPECT_FALSE(tl.observe(pc, 16).spawn);
    EXPECT_TRUE(tl.observe(pc, 24).spawn);
}

TEST(TableOfLoads, RestoreOfMissingEntryDropsIt)
{
    TableOfLoads tl;
    const Addr pc = 0x50000;
    const TlSnapshot empty = tl.snapshot(pc); // not present
    tl.observe(pc, 0);
    tl.restore(pc, empty);
    // The entry was dropped; the next observe re-installs.
    TlObservation o = tl.observe(pc, 8);
    EXPECT_FALSE(o.hit);
}

TEST(TableOfLoads, StorageMatchesPaper)
{
    TableOfLoads tl(512, 4);
    EXPECT_EQ(tl.storageBytes(), 49152u);
}

// --- VRMT ---------------------------------------------------------------------

VrmtEntry
entryFor(Addr pc, VecRegRef v)
{
    VrmtEntry e;
    e.valid = true;
    e.pc = pc;
    e.vreg = v;
    return e;
}

TEST(Vrmt, InstallLookupInvalidate)
{
    Vrmt vrmt;
    const VecRegRef v{3, 1};
    vrmt.install(entryFor(0x1000, v));
    ASSERT_NE(vrmt.lookup(0x1000), nullptr);
    EXPECT_TRUE(vrmt.lookup(0x1000)->vreg == v);
    EXPECT_EQ(vrmt.lookup(0x1008), nullptr);
    vrmt.invalidate(0x1000);
    EXPECT_EQ(vrmt.lookup(0x1000), nullptr);
}

TEST(Vrmt, InstallReplacesSamePc)
{
    Vrmt vrmt;
    vrmt.install(entryFor(0x1000, VecRegRef{1, 1}));
    vrmt.install(entryFor(0x1000, VecRegRef{2, 1}));
    ASSERT_NE(vrmt.lookup(0x1000), nullptr);
    EXPECT_EQ(vrmt.lookup(0x1000)->vreg.reg, 2);
    EXPECT_EQ(vrmt.occupancy(), 1u);
}

TEST(Vrmt, LruEvictionWithinSet)
{
    Vrmt vrmt(1, 2); // one set, two ways
    vrmt.install(entryFor(0x1000, VecRegRef{1, 1}));
    vrmt.install(entryFor(0x2000, VecRegRef{2, 1}));
    vrmt.lookup(0x1000);                            // 0x1000 is MRU
    vrmt.install(entryFor(0x3000, VecRegRef{3, 1})); // evicts 0x2000
    EXPECT_NE(vrmt.lookup(0x1000), nullptr);
    EXPECT_EQ(vrmt.lookup(0x2000), nullptr);
    EXPECT_NE(vrmt.lookup(0x3000), nullptr);
}

TEST(Vrmt, InvalidateByVregCollectsLoadPcs)
{
    Vrmt vrmt;
    VrmtEntry load = entryFor(0x1000, VecRegRef{7, 1});
    load.isLoad = true;
    vrmt.install(load);
    vrmt.install(entryFor(0x2000, VecRegRef{8, 1}));
    vrmt.install(entryFor(0x3000, VecRegRef{9, 1}));

    std::vector<Addr> pcs;
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{7, 1}, &pcs), 1u);
    ASSERT_EQ(pcs.size(), 1u); // the load entry's pc
    EXPECT_EQ(pcs[0], 0x1000u);
    EXPECT_EQ(vrmt.lookup(0x1000), nullptr);
    // Repeat finds no valid entry: no match, no pc.
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{7, 1}, &pcs), 0u);
    EXPECT_EQ(pcs.size(), 1u);
    // Non-load entries invalidate without reporting a pc.
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{8, 1}, &pcs), 1u);
    EXPECT_EQ(pcs.size(), 1u);
    EXPECT_NE(vrmt.lookup(0x3000), nullptr);
}

TEST(Vrmt, InvalidateByVregReportsEagerSuccessor)
{
    Vrmt vrmt;
    VrmtEntry e = entryFor(0x1000, VecRegRef{7, 1});
    e.hasNext = true;
    e.nextVreg = VecRegRef{12, 3};
    vrmt.install(e);

    std::vector<VecRegRef> succ;
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{7, 1}, nullptr, &succ), 1u);
    ASSERT_EQ(succ.size(), 1u);
    EXPECT_TRUE(succ[0] == (VecRegRef{12, 3}));
}

TEST(Vrmt, InvalidateByVregFollowsReplacementAndTakeover)
{
    Vrmt vrmt;
    vrmt.install(entryFor(0x1000, VecRegRef{7, 1}));
    // Replacing the same pc moves the entry to the new register.
    vrmt.install(entryFor(0x1000, VecRegRef{7, 2}));
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{7, 1}), 0u);
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{7, 2}), 1u);

    // The eager-chain takeover assigns the successor in place.
    VrmtEntry &live = vrmt.install(entryFor(0x2000, VecRegRef{5, 1}));
    live.vreg = VecRegRef{6, 4};
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{5, 1}), 0u);
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{6, 4}), 1u);
}

TEST(Vrmt, InvalidateByVregFindsEntryAfterSquashReinstall)
{
    // A squash re-installs a decode's saved entry (undoDecode). The
    // store-conflict path must still find every other entry that
    // holds the conflicting register: here Y, which holds a newer
    // incarnation of the same register id as X's saved entry.
    Vrmt vrmt;
    const VrmtEntry x = entryFor(0x1000, VecRegRef{2, 113});
    vrmt.install(x);
    vrmt.install(entryFor(0x2000, VecRegRef{2, 114}));
    vrmt.install(x);
    EXPECT_EQ(vrmt.invalidateByVreg(VecRegRef{2, 114}), 1u);
    EXPECT_EQ(vrmt.lookup(0x2000), nullptr);
    EXPECT_NE(vrmt.lookup(0x1000), nullptr);
}

TEST(Vrmt, StorageMatchesPaper)
{
    Vrmt vrmt(64, 4);
    EXPECT_EQ(vrmt.storageBytes(), 4608u);
}

// --- vector register file ------------------------------------------------------

TEST(VecRegFile, AllocateReleaseCycle)
{
    VecRegFile vrf(4, 4);
    EXPECT_EQ(vrf.numFree(), 4u);
    const VecRegRef a = vrf.allocate(0);
    ASSERT_TRUE(a.valid());
    EXPECT_EQ(vrf.numFree(), 3u);
    EXPECT_TRUE(vrf.isLive(a));
}

TEST(VecRegFile, StaleReferenceDetectedAfterRealloc)
{
    VecRegFile vrf(1, 4);
    const VecRegRef a = vrf.allocate(0);
    // Condition 1: all elements computed and freed.
    for (unsigned e = 0; e < 4; ++e) {
        vrf.setData(a, e, e);
        vrf.setFree(a, e);
    }
    EXPECT_TRUE(vrf.tryRelease(a, 0));
    const VecRegRef b = vrf.allocate(0);
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(a.reg, b.reg); // same physical register...
    EXPECT_FALSE(vrf.isLive(a)); // ...but the old incarnation is dead
    EXPECT_TRUE(vrf.isLive(b));
}

TEST(VecRegFile, Condition1RequiresAllReadyAndFree)
{
    VecRegFile vrf(2, 4);
    const VecRegRef a = vrf.allocate(0);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(a, e, e);
    vrf.setFree(a, 0);
    vrf.setFree(a, 1);
    vrf.setFree(a, 2);
    EXPECT_FALSE(vrf.tryRelease(a, 0)); // element 3 not freed
    vrf.setFree(a, 3);
    EXPECT_TRUE(vrf.tryRelease(a, 0));
}

TEST(VecRegFile, Condition2OnlyUnderAllocationPressure)
{
    VecRegFile vrf(1, 4);
    const VecRegRef a = vrf.allocate(/*mrbb=*/0x100);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(a, e, e); // all R, none validated, none freed
    // Eager sweep must NOT free it even though GMRBB changed
    // (transient inner-loop branches would otherwise kill outer-loop
    // registers).
    EXPECT_EQ(vrf.sweepReleases(/*gmrbb=*/0x200), 0u);
    EXPECT_TRUE(vrf.isLive(a));
    // Allocation pressure with a different GMRBB reclaims it.
    const VecRegRef b = vrf.allocate(/*mrbb=*/0x200);
    ASSERT_TRUE(b.valid());
    EXPECT_FALSE(vrf.isLive(a));
}

TEST(VecRegFile, Condition2BlockedWhileLoopAlive)
{
    VecRegFile vrf(1, 4);
    const VecRegRef a = vrf.allocate(0x100);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(a, e, e);
    // Same GMRBB (loop still running): even under pressure no steal.
    const VecRegRef b = vrf.allocate(0x100);
    EXPECT_FALSE(b.valid());
    EXPECT_EQ(vrf.allocFailures(), 1u);
}

TEST(VecRegFile, Condition2BlockedByInFlightValidation)
{
    VecRegFile vrf(1, 4);
    const VecRegRef a = vrf.allocate(0x100);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(a, e, e);
    vrf.setUsed(a, 1, true); // validation in flight
    EXPECT_FALSE(vrf.allocate(0x200).valid());
    vrf.setUsed(a, 1, false);
    EXPECT_TRUE(vrf.allocate(0x200).valid());
}

TEST(VecRegFile, ValidatedElementsMustBeFreedForCondition2)
{
    VecRegFile vrf(1, 4);
    const VecRegRef a = vrf.allocate(0x100);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(a, e, e);
    vrf.setValid(a, 0); // committed validation, element still live
    EXPECT_FALSE(vrf.allocate(0x200).valid());
    vrf.setFree(a, 0); // consumer redefined the logical register
    EXPECT_TRUE(vrf.allocate(0x200).valid());
}

TEST(VecRegFile, KilledRegisterFreesOnceUnused)
{
    VecRegFile vrf(2, 4);
    const VecRegRef a = vrf.allocate(0);
    vrf.setUsed(a, 0, true);
    vrf.kill(a);
    EXPECT_EQ(vrf.sweepReleases(0), 0u); // validation still in flight
    vrf.setUsed(a, 0, false);
    EXPECT_EQ(vrf.sweepReleases(0), 1u);
    EXPECT_FALSE(vrf.isLive(a));
}

TEST(VecRegFile, RangeOverlapDetection)
{
    VecRegFile vrf(2, 4);
    const VecRegRef a = vrf.allocate(0);
    vrf.setAddrRange(a, 1000, 1024, 8); // covers bytes [1000, 1031]
    EXPECT_TRUE(vrf.rangeOverlaps(a, 1031, 1031));
    EXPECT_TRUE(vrf.rangeOverlaps(a, 996, 1003));
    EXPECT_FALSE(vrf.rangeOverlaps(a, 1032, 1039));
    EXPECT_FALSE(vrf.rangeOverlaps(a, 0, 999));
}

TEST(VecRegFile, NegativeStrideRangeNormalized)
{
    VecRegFile vrf(2, 4);
    const VecRegRef a = vrf.allocate(0);
    vrf.setAddrRange(a, 1024, 1000, 8); // descending stride
    EXPECT_TRUE(vrf.rangeOverlaps(a, 1000, 1000));
    EXPECT_TRUE(vrf.rangeOverlaps(a, 1031, 1031));
}

TEST(VecRegFile, FateLedgerCountsElementOutcomes)
{
    VecRegFile vrf(1, 4);
    const VecRegRef a = vrf.allocate(0x1);
    vrf.setData(a, 0, 1);
    vrf.setData(a, 1, 2);
    vrf.setData(a, 2, 3); // 3 computed
    vrf.setValid(a, 0);   // 1 validated
    vrf.releaseAll();
    const VecRegFateStats &f = vrf.fateStats();
    EXPECT_EQ(f.regsReleased, 1u);
    EXPECT_EQ(f.elemsComputedUsed, 1u);
    EXPECT_EQ(f.elemsComputedNotUsed, 2u);
    EXPECT_EQ(f.elemsNotComputed, 1u);
}

/** Property: element flags over all state transitions keep the fate
 *  partition exhaustive (used + notUsed + notComputed == vlen). */
class VecRegFateSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(VecRegFateSweep, FatePartitionIsExhaustive)
{
    const unsigned pattern = GetParam();
    VecRegFile vrf(1, 4);
    const VecRegRef a = vrf.allocate(0);
    for (unsigned e = 0; e < 4; ++e) {
        if (pattern & (1u << e))
            vrf.setData(a, e, e);
        if ((pattern & (1u << (e + 4))) && (pattern & (1u << e)))
            vrf.setValid(a, e);
    }
    vrf.releaseAll();
    const VecRegFateStats &f = vrf.fateStats();
    EXPECT_EQ(f.elemsComputedUsed + f.elemsComputedNotUsed +
                  f.elemsNotComputed,
              4u);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, VecRegFateSweep,
                         ::testing::Range(0u, 256u));

// --- datapath ----------------------------------------------------------------

struct DatapathFixture : public ::testing::Test, public VecExecContext
{
    DatapathFixture()
        : vrf(8, 4), dp(VectorFuConfig{}, vrf), mem(MemHierarchyConfig{}),
          ports(4, true, 32)
    {
        dp.setContext(this);
    }

    std::uint64_t
    specLoadValue(Addr addr, unsigned) const override
    {
        return addr * 10;
    }

    bool
    seqCompleted(InstSeqNum) const override
    {
        return producer_done;
    }

    bool producer_done = false;

    using StatWords = std::array<std::uint64_t, sizeof(DatapathStats) /
                                                    sizeof(std::uint64_t)>;

    /** The register-file state a tick can change: each live
     *  incarnation with its killed flag and R flags. */
    std::vector<std::uint64_t>
    regState() const
    {
        std::vector<std::uint64_t> state;
        vrf.forEachLive([&](VecRegRef r) {
            std::uint64_t ready = 0;
            for (unsigned e = 0; e < vrf.vlen(); ++e)
                ready |= std::uint64_t(vrf.isReady(r, e)) << e;
            state.insert(state.end(),
                         {r.reg, r.gen, vrf.isKilled(r), ready});
        });
        return state;
    }

    /** Tick @p n cycles. At every cycle the horizon puts in the future
     *  (nextEventCycle(now) > now), the tick must change nothing:
     *  not the instance count, the statistics, any register, or the
     *  horizon itself (an element initiated this cycle would move it). */
    void
    tickN(unsigned n, Cycle &now)
    {
        for (unsigned i = 0; i < n; ++i, ++now) {
            ports.beginCycle();
            const Cycle horizon = dp.nextEventCycle(now);
            const bool quiet = horizon > now;
            const std::size_t active = dp.numActive();
            const auto stats = std::bit_cast<StatWords>(dp.stats());
            const auto regs = regState();
            dp.tick(now, ports, mem);
            if (!quiet)
                continue;
            ++quietTicks;
            EXPECT_EQ(dp.numActive(), active) << "cycle " << now;
            EXPECT_EQ(std::bit_cast<StatWords>(dp.stats()), stats)
                << "cycle " << now;
            EXPECT_EQ(regState(), regs) << "cycle " << now;
            EXPECT_EQ(dp.nextEventCycle(now), horizon) << "cycle " << now;
        }
    }

    unsigned quietTicks = 0; ///< cycles tickN checked as quiet

    VecRegFile vrf;
    VectorDatapath dp;
    MemHierarchy mem;
    DCachePorts ports;
};

TEST_F(DatapathFixture, LoadInstanceFillsElements)
{
    const VecRegRef v = vrf.allocate(0);
    vrf.setElemCount(v, 4);
    dp.spawnLoad(0x1000, v, /*base=*/800, /*stride=*/8, 8, 4);
    Cycle now = 0;
    tickN(40, now); // enough for a cold miss to land
    for (unsigned e = 0; e < 4; ++e) {
        ASSERT_TRUE(vrf.isReady(v, e));
        EXPECT_EQ(vrf.data(v, e), (800 + 8 * (e + 1)) * 10);
    }
    EXPECT_EQ(dp.numActive(), 0u);
}

TEST_F(DatapathFixture, LoadFeedsArithInstance)
{
    const VecRegRef v = vrf.allocate(0);
    const VecRegRef dst = vrf.allocate(0);
    dp.spawnLoad(0x1000, v, /*base=*/800, /*stride=*/8, 8, 4);
    dp.spawnArith(0x2000, Opcode::ADDI, /*imm=*/5, dst,
                  SrcSpec::vector(v, 0), SrcSpec::none(), 4);
    Cycle now = 0;
    tickN(60, now); // the arith instance waits out the cold miss
    for (unsigned e = 0; e < 4; ++e)
        EXPECT_EQ(vrf.data(dst, e), (800 + 8 * (e + 1)) * 10 + 5);
    EXPECT_EQ(dp.numActive(), 0u);
    EXPECT_GT(quietTicks, 20u);
}

TEST_F(DatapathFixture, ArithInstanceComputesFromSources)
{
    const VecRegRef src = vrf.allocate(0);
    vrf.setElemCount(src, 4);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(src, e, 10 * e);
    const VecRegRef dst = vrf.allocate(0);
    vrf.setElemCount(dst, 4);
    dp.spawnArith(0x2000, Opcode::ADDI, /*imm=*/5, dst,
                  SrcSpec::vector(src, 0), SrcSpec::none(), 4);
    Cycle now = 0;
    tickN(10, now);
    for (unsigned e = 0; e < 4; ++e) {
        ASSERT_TRUE(vrf.isReady(dst, e));
        EXPECT_EQ(vrf.data(dst, e), 10 * e + 5);
    }
}

TEST_F(DatapathFixture, ScalarOperandBroadcasts)
{
    const VecRegRef src = vrf.allocate(0);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(src, e, e);
    const VecRegRef dst = vrf.allocate(0);
    dp.spawnArith(0x3000, Opcode::ADD, 0, dst, SrcSpec::vector(src, 0),
                  SrcSpec::scalar(100), 4);
    Cycle now = 0;
    tickN(10, now);
    for (unsigned e = 0; e < 4; ++e)
        EXPECT_EQ(vrf.data(dst, e), 100 + e);
}

TEST_F(DatapathFixture, ScalarDependenceParksInstance)
{
    const VecRegRef src = vrf.allocate(0);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(src, e, e);
    const VecRegRef dst = vrf.allocate(0);
    SrcSpec scalar = SrcSpec::scalar(7);
    scalar.depSeq = 42; // in-flight producer
    dp.spawnArith(0x4000, Opcode::ADD, 0, dst, SrcSpec::vector(src, 0),
                  scalar, 4);
    Cycle now = 0;
    tickN(10, now);
    EXPECT_FALSE(vrf.isReady(dst, 0)); // still parked
    EXPECT_EQ(quietTicks, 10u);        // every parked cycle is quiet
    producer_done = true;
    tickN(10, now);
    EXPECT_TRUE(vrf.isReady(dst, 3));
    EXPECT_EQ(vrf.data(dst, 0), 7u);
}

TEST_F(DatapathFixture, SourceOffsetShiftsElementPairing)
{
    const VecRegRef src = vrf.allocate(0);
    for (unsigned e = 0; e < 4; ++e)
        vrf.setData(src, e, 100 + e);
    const VecRegRef dst = vrf.allocate(0);
    vrf.setElemCount(dst, 3); // vlen - srcOffset
    dp.spawnArith(0x5000, Opcode::ADDI, 0, dst, SrcSpec::vector(src, 1),
                  SrcSpec::none(), 3);
    Cycle now = 0;
    tickN(10, now);
    EXPECT_EQ(vrf.data(dst, 0), 101u);
    EXPECT_EQ(vrf.data(dst, 2), 103u);
    EXPECT_EQ(dp.stats().instancesWithNonzeroSrcOffset, 1u);
}

TEST_F(DatapathFixture, AbortStopsRemainingElements)
{
    const VecRegRef v = vrf.allocate(0);
    dp.spawnLoad(0x6000, v, 800, 8, 8, 4);
    dp.abortByDest(v);
    Cycle now = 0;
    tickN(20, now);
    EXPECT_FALSE(vrf.isReady(v, 0));
    EXPECT_EQ(dp.numActive(), 0u);
}

TEST_F(DatapathFixture, DeadSourceCascadesKillToDest)
{
    const VecRegRef src = vrf.allocate(0);
    const VecRegRef dst = vrf.allocate(0);
    dp.spawnArith(0x7000, Opcode::ADDI, 1, dst, SrcSpec::vector(src, 0),
                  SrcSpec::none(), 4);
    vrf.kill(src); // e.g. store conflict on the producer
    Cycle now = 0;
    tickN(5, now);
    EXPECT_TRUE(vrf.isKilled(dst));
    EXPECT_EQ(dp.numActive(), 0u);
    EXPECT_EQ(quietTicks, 4u); // all but the cascade's own cycle
}

TEST_F(DatapathFixture, UniformSourceServesAnyElementFromElem0)
{
    const VecRegRef src = vrf.allocate(0);
    vrf.setUniform(src, true);
    vrf.setData(src, 0, 55); // only element 0 computed
    const VecRegRef dst = vrf.allocate(0);
    dp.spawnArith(0x8000, Opcode::ADDI, 1, dst, SrcSpec::vector(src, 2),
                  SrcSpec::none(), 4);
    Cycle now = 0;
    tickN(10, now);
    for (unsigned e = 0; e < 4; ++e)
        EXPECT_EQ(vrf.data(dst, e), 56u);
    EXPECT_GT(quietTicks, 0u);
}

} // namespace
} // namespace sdv
