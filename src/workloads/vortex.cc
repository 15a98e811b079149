/**
 * @file
 * `vortex` stand-in: an object-oriented database — record traversals
 * over an array of two-word objects (constant stride 2), stride-1 bulk
 * copies between stores, index-directed random probes and well
 * predicted validation branches.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildVortex(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // Footprint: the two-word record store plus its mirror,
    // 26KB / 200KB / 1.6MB. The grown modes also widen the scan and
    // bulk-copy windows (the seed masks cover a hot subset only) so
    // the streamed traffic spreads over the grown store.
    const std::size_t nrec = byFootprint<std::size_t>(fp, 1024, 8192, 65536);
    const std::size_t indexLen =
        byFootprint<std::size_t>(fp, 256, 1024, 4096);
    const std::int32_t iters = scaledPasses("vortex", scale, 190);
    const bool base = fp == Footprint::Base;
    const std::int32_t scanMask = subIndexMask(nrec, base ? 32 : 8);
    const std::int32_t copyMask = subIndexMask(nrec, base ? 16 : 4);

    ProgramBuilder b;
    Random rng(0x04237e ^ fuzz_seed);

    const Addr records = b.allocWords("records", nrec * 2); // key,value
    const Addr mirror = b.allocWords("mirror", nrec);
    const Addr index = b.allocWords("index", indexLen);
    const Addr frame = b.allocWords("frame", 32);
    fillRandomWords(b, records, nrec * 2, rng, 10000);
    fillWords(b, index, indexLen,
              [&](size_t) { return rng.below(nrec); });

    emitLcgInit(b, 0x4237e ^ fuzz_seed);
    b.loadAddr(framePtr, frame);
    b.ldi(acc0, 0);
    b.ldi(acc1, 0);

    countedLoop(b, counter0, iters, [&] {
        // Transaction-state reloads (db handle, cursor: stride 0).
        emitSpillReloads(b, 6, acc1);
        // Key scan over 10 records (stride 2: the struct size).
        b.loadAddr(ptr0, records);
        b.andi(scratch0, counter0, scanMask);
        b.slli(scratch0, scratch0, 4);
        b.add(ptr0, ptr0, scratch0);
        countedLoop(b, counter1, 10, [&] {
            b.ldq(scratch1, ptr0, 0); // key (stride 2)
            b.addi(ptr0, ptr0, 16);
            // Key decoding (vectorizable chain).
            b.srli(scratch3, scratch1, 2);
            b.xori(scratch3, scratch3, 0x111);
            b.andi(scratch3, scratch3, 0x3fff);
            auto skip = b.newLabel();
            b.cmplti(scratch2, scratch1, 9000);
            b.beqz(scratch2, skip); // ~90% taken: validation passes
            b.add(acc0, acc0, scratch3);
            b.bind(skip);
        });

        // Bulk copy of 16 values into the mirror store (stride 1 load
        // and store).
        b.loadAddr(ptr1, records);
        b.loadAddr(ptr2, mirror);
        b.andi(scratch0, counter0, copyMask);
        b.slli(scratch1, scratch0, 3);
        b.add(ptr2, ptr2, scratch1);
        b.slli(scratch1, scratch0, 4);
        b.add(ptr1, ptr1, scratch1);
        countedLoop(b, counter1, 8, [&] {
            b.ldq(scratch2, ptr1, 8);
            b.addi(ptr1, ptr1, 8);
            b.addi(scratch2, scratch2, 1);
            b.stq(scratch2, ptr2, 0);
            b.addi(ptr2, ptr2, 8);
        });

        // Index-directed probe (random record).
        emitLcgNext(b, scratch0, std::uint32_t(indexMask(indexLen)));
        b.slli(scratch0, scratch0, 3);
        b.loadAddr(ptr3, index);
        b.add(ptr3, ptr3, scratch0);
        b.ldq(scratch1, ptr3, 0);
        b.slli(scratch1, scratch1, 4);
        b.loadAddr(ptr3, records);
        b.add(ptr3, ptr3, scratch1);
        b.ldq(scratch2, ptr3, 8);
        b.add(acc1, acc1, scratch2);
    });

    b.loadAddr(ptr3, mirror);
    b.stq(acc0, ptr3, 8 * 1000);
    b.stq(acc1, ptr3, 8 * 1001);
    b.halt();
    return b.finish();
}

} // namespace sdv
