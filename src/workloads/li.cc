/**
 * @file
 * `li` stand-in: a lisp-interpreter heap walk. Cons cells come from a
 * sequential allocation pool, so the cdr chain is pointer chasing with
 * a *constant* stride — exactly the irregular-looking-but-strided
 * pattern the paper's mechanism vectorizes where a compiler cannot.
 * Adds an eval stack (stride 0/1 traffic) and an environment probe.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildLi(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // Footprint: the sequential cons-cell pool (32KB / 128KB / 1MB)
    // plus the hashed environment. In the base mode the evaluator
    // restarts at the head every iteration (the seed behaviour); in
    // the grown modes the circular walk continues instead, so the
    // constant-stride cdr chase actually streams the whole pool.
    const std::size_t cells = byFootprint<std::size_t>(fp, 2048, 8192, 65536);
    const std::size_t envLen = byFootprint<std::size_t>(fp, 256, 1024, 4096);
    const std::int32_t iters = scaledPasses("li", scale, 520);

    ProgramBuilder b;
    Random rng(0x115b ^ fuzz_seed);

    // Sequential pool: cdr (word 0) strides by the 2-word cell size.
    const Addr head = buildList(b, "cells", cells, 2,
                                /*shuffled=*/false, rng);
    const Addr env = b.allocWords("env", envLen);
    const Addr stack = b.allocWords("stack", 64);
    const Addr frame = b.allocWords("frame", 32);
    fillRandomWords(b, env, envLen, rng, 400);

    emitLcgInit(b, 0x11511 ^ fuzz_seed);
    b.loadAddr(ptr2, env);
    b.loadAddr(ptr3, stack);
    b.loadAddr(framePtr, frame);
    b.ldi(acc0, 0);
    b.ldi(acc1, 0);

    const bool walkContinues = fp != Footprint::Base;
    if (walkContinues)
        b.loadAddr(ptr0, head);
    countedLoop(b, counter0, iters, [&] {
        // Interpreter-state reloads (env pointer, depth: stride 0).
        emitSpillReloads(b, 6, acc1);
        // Evaluate a list of 5 cells: car is the value, cdr the next
        // cell (constant-stride pointer loads). The grown footprints
        // keep walking the circular pool instead of restarting.
        if (!walkContinues)
            b.loadAddr(ptr0, head);
        countedLoop(b, counter1, 5, [&] {
            b.ldq(scratch0, ptr0, 8); // car
            b.ldq(ptr0, ptr0, 0);     // cdr: strided pointer chase
            // Tag checks and fixnum arithmetic on the car (all
            // dependent on the vectorized load).
            b.andi(scratch1, scratch0, 7);
            b.srli(scratch2, scratch0, 3);
            b.slli(scratch3, scratch2, 1);
            b.add(scratch3, scratch3, scratch1);
            b.add(acc0, acc0, scratch3);
        });

        // Push the partial result onto a rotating stack slot (store
        // traffic without re-loading the just-written word).
        b.andi(scratch0, counter0, 31);
        b.slli(scratch0, scratch0, 3);
        b.add(scratch1, ptr3, scratch0);
        b.stq(acc0, scratch1, 0);

        // Environment lookup at a hashed index with a biased branch.
        emitLcgNext(b, scratch1, std::uint32_t(indexMask(envLen)));
        b.slli(scratch1, scratch1, 3);
        b.add(ptr1, ptr2, scratch1);
        b.ldq(scratch2, ptr1, 0);
        auto unbound = b.newLabel();
        b.cmplti(scratch3, scratch2, 320);
        b.beqz(scratch3, unbound);
        b.add(acc0, acc0, scratch2);
        b.bind(unbound);
    });

    b.stq(acc0, ptr3, 8);
    b.stq(acc1, ptr3, 16);
    b.halt();
    return b.finish();
}

} // namespace sdv
