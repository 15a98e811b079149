/**
 * @file
 * `m88ksim` stand-in: an instruction-set-simulator main loop. Fetches
 * encoded "instructions" from a trace with stride 1, decodes them with
 * shifts/masks (vectorizable dataflow off the trace load), dispatches
 * through a compare cascade and touches a simulated register file and
 * statistics counters at data-dependent indices. One of the more
 * vectorizable SpecInt95 members (~55% in Figure 3).
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildM88ksim(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // The streamed trace is the footprint: 16KB / 128KB / 1MB. Each
    // pass re-reads it from the start, so every L2/mem pass misses L1.
    const std::size_t traceLen =
        byFootprint<std::size_t>(fp, 2048, 16384, 131072);
    const std::int32_t passes =
        scaledPasses("m88ksim", scale, 2, byFootprint(fp, 1u, 8u, 64u));

    ProgramBuilder b;
    Random rng(0x88000 ^ fuzz_seed);

    const Addr trace = b.allocWords("trace", traceLen);
    const Addr regfile = b.allocWords("regfile", 32);
    const Addr stats = b.allocWords("stats", 8);
    const Addr frame = b.allocWords("frame", 32);
    // Encoded instruction: op in bits 0..1 (4 cases), rs 2..6, rt 7..11.
    fillWords(b, trace, traceLen,
              [&](size_t) { return rng.below(1u << 12); });
    fillRandomWords(b, regfile, 32, rng, 1000);

    b.loadAddr(ptr0, trace);
    b.loadAddr(ptr1, regfile);
    b.loadAddr(ptr2, stats);
    b.loadAddr(framePtr, frame);
    b.ldi(acc0, 0);

    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, trace);
        countedLoop(b, counter1, std::int32_t(traceLen), [&] {
            // Simulator-state reloads (PC, cycle count: stride 0).
            emitSpillReloads(b, 2, acc0);
            // Fetch (stride 1) and decode: the field extractions are
            // dependent on the vectorized trace load.
            b.ldq(scratch0, ptr0, 0);
            b.addi(ptr0, ptr0, 8);
            b.andi(scratch1, scratch0, 3);        // op
            b.srli(scratch2, scratch0, 2);
            b.andi(scratch2, scratch2, 31);       // rs
            b.srli(scratch3, scratch0, 7);
            b.andi(scratch3, scratch3, 31);       // rt

            // Dispatch cascade (data dependent, moderately biased).
            auto case1 = b.newLabel();
            auto case2 = b.newLabel();
            auto done = b.newLabel();
            b.bnez(scratch1, case1);
            // case 0: ALU - rf[rt] = rf[rs] + op
            b.slli(scratch2, scratch2, 3);
            b.add(ptr3, ptr1, scratch2);
            b.ldq(scratch2, ptr3, 0);
            b.add(scratch2, scratch2, scratch1);
            b.slli(scratch3, scratch3, 3);
            b.add(ptr3, ptr1, scratch3);
            b.stq(scratch2, ptr3, 0);
            b.br(done);
            b.bind(case1);
            b.cmpeqi(scratch2, scratch1, 1);
            b.beqz(scratch2, case2);
            // case 1: accumulate decoded fields (pure vector dataflow)
            b.add(acc0, acc0, scratch3);
            b.add(acc0, acc0, scratch1);
            b.br(done);
            b.bind(case2);
            // cases 2/3: statistics bump at a data-dependent index
            b.andi(scratch2, scratch0, 7);
            b.slli(scratch2, scratch2, 3);
            b.add(ptr3, ptr2, scratch2);
            b.ldq(scratch3, ptr3, 0);
            b.addi(scratch3, scratch3, 1);
            b.stq(scratch3, ptr3, 0);
            b.bind(done);
        });
    });

    b.stq(acc0, ptr2, 56);
    b.halt();
    return b.finish();
}

} // namespace sdv
