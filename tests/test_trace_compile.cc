/**
 * @file
 * Equivalence tests of trace-compiled dispatch: for every tier-1
 * workload the compiled-trace run and the interpreter reference run
 * (--no-trace) must produce bit-identical statistics and committed-
 * stream hashes — in the default configuration and under the
 * adversarial modes (eager chaining, periodic quiesce). Also covers
 * the compiled trace itself: slot contents, patch() recompilation and
 * append() extension, and the functional fast path against the
 * interpreter; the decoded-program cache (invalidation on patch); and
 * the Figure-13 ledger folding memory bound.
 */

#include <deque>

#include <gtest/gtest.h>

#include "arch/executor.hh"
#include "isa/trace.hh"
#include "sim/simulator.hh"
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

/** Every stat both runs must agree on, in one comparable bundle. */
struct RunDigest
{
    SimResult res;
    std::uint64_t commitHash = 0;
};

RunDigest
runOnce(CoreConfig cfg, const Program &prog, bool trace, bool verify,
        std::uint64_t quiesce_interval = 0)
{
    cfg.traceExec = trace;
    Simulator sim(cfg, prog);
    RunDigest d;
    d.res = sim.run(50'000'000, verify, quiesce_interval);
    d.commitHash = sim.core().commitPcHash();
    return d;
}

/** Assert equality of every statistic: dispatch mode must not be
 *  observable in any counter. */
void
expectIdentical(const RunDigest &tr, const RunDigest &ref,
                const std::string &label)
{
    expectSameStats(tr.res, ref.res, label);
    EXPECT_EQ(tr.commitHash, ref.commitHash) << label;
}

TEST(TraceCompile, BitIdenticalOnEveryTier1Workload)
{
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        for (BusMode mode : {BusMode::WideBusSdv, BusMode::ScalarBus}) {
            const CoreConfig cfg = makeConfig(4, 1, mode);
            // Verification (functional re-execution + state compare)
            // on the vectorized config, where divergence would bite.
            const bool verify = mode == BusMode::WideBusSdv;
            const RunDigest tr = runOnce(cfg, prog, true, verify);
            const RunDigest ref = runOnce(cfg, prog, false, verify);
            ASSERT_TRUE(ref.res.finished);
            if (verify) {
                EXPECT_TRUE(tr.res.verified);
                EXPECT_TRUE(ref.res.verified);
            }
            expectIdentical(
                tr, ref,
                w.name + "/" +
                    (mode == BusMode::WideBusSdv ? "xpV" : "noIM"));
        }
    }
}

TEST(TraceCompile, AdversarialModesStayBitIdentical)
{
    // The modes that stress speculative-state bookkeeping hardest:
    // eager chain spawning and periodic pipeline quiesce. The dispatch
    // mechanism must be invisible in both.
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        const CoreConfig base = makeConfig(4, 1, BusMode::WideBusSdv);

        {
            CoreConfig cfg = base;
            cfg.engine.eagerChainLoads = true;
            expectIdentical(runOnce(cfg, prog, true, false),
                            runOnce(cfg, prog, false, false),
                            w.name + "/eager-chain");
        }
        {
            expectIdentical(runOnce(base, prog, true, false, 3'000),
                            runOnce(base, prog, false, false, 3'000),
                            w.name + "/quiesce-interval");
        }
    }
}

// --- the compiled trace itself ---------------------------------------------

TEST(CompiledTrace, SlotsPrecomputeOperandsAndTargets)
{
    Program p;
    const Addr pc0 = p.append(Instruction(Opcode::ADDI, 1, 2, 0, -7));
    const Addr pc1 = p.append(Instruction(Opcode::BEQZ, 0, 1, 0, 3));
    p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));
    p.predecodeAll();

    const CompiledTrace &t = p.trace();
    ASSERT_EQ(t.numSlots(), 3u);

    const CompiledTrace::Slot &s0 = t.slotAt(pc0);
    EXPECT_EQ(s0.inst.op, Opcode::ADDI);
    EXPECT_EQ(s0.simm, -7);
    EXPECT_EQ(s0.fallthrough, pc0 + instBytes);

    // Branch targets are folded at compile time: pc + imm * instBytes.
    const CompiledTrace::Slot &s1 = t.slotAt(pc1);
    EXPECT_EQ(s1.target, pc1 + Addr(3 * instBytes));
    EXPECT_EQ(s1.fallthrough, pc1 + instBytes);
}

TEST(CompiledTrace, PatchRecompilesAndAppendExtends)
{
    Program p;
    p.append(Instruction(Opcode::ADD, 1, 2, 3, 0));
    const Addr pc1 = p.append(Instruction(Opcode::LDQ, 4, 5, 0, 16));
    p.predecodeAll();
    ASSERT_EQ(p.trace().numSlots(), 2u);

    // Patch slot 1 (the builder's label-fixup path): the compiled slot
    // must be recompiled in place, not served stale.
    p.patch(1, Instruction(Opcode::LDQ, 4, 5, 0, 64));
    EXPECT_EQ(p.trace().slotAt(pc1).simm, 64);
    p.patch(1, Instruction(Opcode::BR, 0, 0, 0, -1));
    EXPECT_EQ(p.trace().slotAt(pc1).inst.op, Opcode::BR);
    EXPECT_EQ(p.trace().slotAt(pc1).target, pc1 - Addr(instBytes));

    // append() extends the existing trace one slot at a time.
    const Addr pc2 = p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));
    ASSERT_EQ(p.trace().numSlots(), 3u);
    EXPECT_EQ(p.trace().slotAt(pc2).inst.op, Opcode::HALT);

    // A copy recompiles its own trace; patching it must not leak into
    // the original's compiled slots.
    Program q = p;
    q.patch(1, Instruction(Opcode::SUB, 7, 8, 9, 0));
    EXPECT_EQ(q.trace().slotAt(pc1).inst.op, Opcode::SUB);
    EXPECT_EQ(p.trace().slotAt(pc1).inst.op, Opcode::BR);
}

TEST(CompiledTrace, FunctionalFastPathMatchesInterpreter)
{
    // The oracle-at-fetch handlers and the interpreter must agree on
    // the full committed stream, instruction count and final state —
    // the property the fuzz divergence oracle now leans on.
    for (const char *name : {"compress", "swim", "fpppp"}) {
        SCOPED_TRACE(name);
        const Program &prog = keep(buildWorkload(name, 1));
        FunctionalCore a(prog, /*use_trace=*/true);
        FunctionalCore b(prog, /*use_trace=*/false);
        std::uint64_t ha = 0, hb = 0;
        a.runToHalt(&ha);
        b.runToHalt(&hb);
        EXPECT_EQ(ha, hb);
        EXPECT_EQ(a.instCount(), b.instCount());
        EXPECT_TRUE(a.state() == b.state());
        EXPECT_TRUE(a.memory().equals(b.memory()));
    }
}

// --- decoded instructions (Program::instAt reads the compiled trace) -------

TEST(DecodedCache, InstAtReflectsPatch)
{
    Program p;
    const Addr pc0 =
        p.append(Instruction(Opcode::ADD, 1, 2, 3, 0));
    const Addr pc1 =
        p.append(Instruction(Opcode::LDQ, 4, 5, 0, 16));
    p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));

    // Build the compiled trace through instAt().
    EXPECT_EQ(p.instAt(pc0).op, Opcode::ADD);
    EXPECT_EQ(p.instAt(pc1).op, Opcode::LDQ);
    EXPECT_EQ(p.instAt(pc1).imm, 16);

    // Patch slot 1 (the builder's label-fixup path) and re-read: the
    // trace slot must be recompiled, not returned stale.
    p.patch(1, Instruction(Opcode::LDQ, 4, 5, 0, 64));
    EXPECT_EQ(p.instAt(pc1).imm, 64);
    p.patch(1, Instruction(Opcode::SUB, 7, 8, 9, 0));
    EXPECT_EQ(p.instAt(pc1).op, Opcode::SUB);
    EXPECT_EQ(p.instAt(pc1).rd, 7);

    // Unpatched slots keep their decode.
    EXPECT_EQ(p.instAt(pc0).op, Opcode::ADD);
    EXPECT_EQ(p.instAt(pc0).rs2, 3);
}

TEST(DecodedCache, RepeatedAccessIsStable)
{
    Program p;
    const Addr pc = p.append(Instruction(Opcode::ADDI, 3, 3, 0, -7));
    p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));
    const Instruction &first = p.instAt(pc);
    const Instruction &second = p.instAt(pc);
    // Same trace slot, same contents.
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(first.imm, -7);
    EXPECT_EQ(p.encodedAt(pc), first.encode());
}

// --- Figure-13 ledger folding ---------------------------------------------

TEST(LedgerFolding, MemoryBoundedByInFlightAccesses)
{
    // A full workload makes tens of thousands of port accesses; after
    // folding, the ledger slot pool must stay bounded by what can be
    // simultaneously unresolved, not grow with traffic.
    const Program &prog = keep(buildWorkload("swim", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Simulator sim(cfg, prog);
    const SimResult res = sim.run(50'000'000, /*verify=*/false);
    ASSERT_TRUE(res.finished);

    DCachePorts &ports = sim.core().ports();
    EXPECT_GT(res.ports.readAccesses, 5'000u);
    EXPECT_EQ(res.wideBus.totalReads, res.ports.readAccesses);
    // Unresolved records are bounded by in-flight speculative elements
    // (vector registers * vlen), far below total traffic.
    EXPECT_LT(ports.ledgerSlotHighWater(),
              std::size_t(cfg.engine.numVregs * cfg.engine.vlen * 2));
    // After finalize() (run() calls it), every element is resolved and
    // only the final cycle's accesses may still be live.
    EXPECT_LE(ports.ledgerLiveRecords(), std::size_t(cfg.dcachePorts));
}

} // namespace
} // namespace sdv
