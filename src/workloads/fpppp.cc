/**
 * @file
 * `fpppp` stand-in: electron-integral style code — enormous straight-
 * line basic blocks of dependent FP arithmetic over a small workspace
 * that is reloaded (stride 0) and partially rewritten every iteration.
 * The rewrites invalidate the stride-0 vectors (Section 3.6), which is
 * why fpppp shows the lowest FP vectorizable fraction in Figure 3.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildFpppp(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // The seed workspace is deliberately tiny (256B: fpppp's character
    // is straight-line FP code over few cells). The grown modes tile a
    // 128KB / 1MB workspace into 256-byte blocks and move to the next
    // block every 8 iterations: stride-0 reloads still form vectors
    // within a block's window, while the walk streams the footprint.
    const std::size_t workWords =
        byFootprint<std::size_t>(fp, 32, 16384, 131072);
    const std::int32_t iters = scaledPasses("fpppp", scale, 2200);

    ProgramBuilder b;

    const Addr work = b.allocWords("work", workWords);
    const Addr result = b.allocWords("result", 8);
    const double fz = fuzzOffset(fuzz_seed);
    fillDoubles(b, work, workWords,
                [=](size_t i) { return 1.0 + fz + 0.03 * i; });

    const RegId f0 = 33, f1 = 34, f2 = 35, f3 = 36, f4 = 37, f5 = 38,
                f6 = 39, facc = 40;

    b.loadAddr(ptr0, work);
    b.ldi(scratch0, 0);
    b.cvtif(facc, scratch0);

    // Grown footprints: 256B blocks, advanced every 8th iteration.
    const bool walkBlocks = fp != Footprint::Base;
    const std::int32_t blockMask =
        walkBlocks ? subIndexMask(workWords, 32) : 0;

    countedLoop(b, counter0, iters, [&] {
        if (walkBlocks) {
            auto sameBlock = b.newLabel();
            b.andi(scratch0, counter0, 7);
            b.bnez(scratch0, sameBlock);
            // block = (counter0 >> 3) & (nblocks - 1); ptr0 = work +
            // block * 256 — a fresh 4-line window in the workspace.
            b.srli(scratch0, counter0, 3);
            b.andi(scratch0, scratch0, blockMask);
            b.slli(scratch0, scratch0, 8);
            b.loadAddr(ptr0, work);
            b.add(ptr0, ptr0, scratch0);
            b.bind(sameBlock);
        }
        // Integral-table bookkeeping: shell indices, symmetry flags
        // (scalar integer work that never vectorizes).
        b.slli(scratch1, counter0, 2);
        b.xori(scratch2, scratch1, 0x1b);
        b.add(acc0, acc0, scratch2);
        b.srli(scratch3, acc0, 5);
        b.and_(scratch3, scratch3, counter0);
        b.add(acc1, acc1, scratch3);

        // Block 1: read-only workspace cells (stride 0 across
        // iterations -> vectorizable).
        b.fld(f0, ptr0, 0);
        b.fld(f1, ptr0, 8);
        b.fld(f2, ptr0, 16);
        b.fld(f3, ptr0, 24);
        b.fmul(f4, f0, f1);
        b.fadd(f5, f2, f3);
        b.fmul(f6, f4, f5);
        b.fadd(facc, facc, f6);
        // Accumulator-coupled products: these re-vectorize every
        // iteration (the captured accumulator value changes).
        b.fmul(f4, facc, f2);
        b.fadd(f5, f4, f1);
        b.fmul(f6, f5, f0);
        b.fadd(facc, facc, f6);

        // Block 2: cells that are periodically rewritten; the stores
        // land inside the stride-0 vector ranges and fire the Section
        // 3.6 coherence check, which is why fpppp vectorizes poorly.
        b.fld(f0, ptr0, 128);
        b.fld(f1, ptr0, 136);
        b.fmul(f2, f0, f1);
        b.fadd(f3, f2, f4);
        b.fmul(f4, f3, f1);
        b.fsub(f5, f4, f0);
        b.fadd(facc, facc, f5);
        {
            auto skip = b.newLabel();
            b.andi(scratch1, counter0, 7);
            b.bnez(scratch1, skip); // rewrite every 8th iteration
            b.fst(f3, ptr0, 128);
            b.fst(f5, ptr0, 136);
            b.bind(skip);
        }
        // Unconditional result spill to cells that are never reloaded.
        b.fst(f5, ptr0, 192);

        // Long dependent tail off the running accumulator: these never
        // validate (the accumulator changes every iteration), keeping
        // fpppp's vectorizable fraction low as in Figure 3.
        b.fmul(f6, facc, f3);
        b.fadd(f6, f6, f2);
        b.fmul(f6, f6, f1);
        b.fadd(f6, f6, f5);
        b.fmul(f6, f6, f0);
        b.fadd(facc, facc, f6);
    });

    b.loadAddr(ptr1, result);
    b.fst(facc, ptr1, 0);
    b.halt();
    return b.finish();
}

} // namespace sdv
