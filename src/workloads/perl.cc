/**
 * @file
 * `perl` stand-in: a bytecode interpreter — stride-1 opcode fetch, a
 * dispatch cascade with mixed-predictability branches, stride-1 string
 * scanning, random hash probes and value-stack traffic.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildPerl(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // Footprint: streamed bytecode, scanned string arena and the
    // randomly probed hash. 17KB / 160KB / 900KB total.
    const std::size_t codeLen =
        byFootprint<std::size_t>(fp, 1024, 8192, 32768);
    const std::size_t stringsLen =
        byFootprint<std::size_t>(fp, 512, 4096, 16384);
    const std::size_t hashLen =
        byFootprint<std::size_t>(fp, 512, 8192, 65536);
    const std::int32_t passes =
        scaledPasses("perl", scale, 2, byFootprint(fp, 1u, 8u, 32u));

    ProgramBuilder b;
    Random rng(0x9e71 ^ fuzz_seed);

    const Addr bytecode = b.allocWords("bytecode", codeLen);
    const Addr strings = b.allocWords("strings", stringsLen);
    const Addr hash = b.allocWords("hash", hashLen);
    const Addr vstack = b.allocWords("vstack", 64);
    const Addr frame = b.allocWords("frame", 32);
    fillRandomWords(b, bytecode, codeLen, rng, 4);
    fillRandomWords(b, strings, stringsLen, rng, 128);
    fillRandomWords(b, hash, hashLen, rng, 600);

    emitLcgInit(b, 0x9e119e11 ^ fuzz_seed);
    b.loadAddr(ptr1, strings);
    b.loadAddr(ptr2, hash);
    b.loadAddr(ptr3, vstack);
    b.loadAddr(framePtr, frame);
    b.ldi(acc0, 0);
    b.ldi(acc1, 0);

    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, bytecode);
        countedLoop(b, counter1, std::int32_t(codeLen), [&] {
            // Interpreter-state reloads (sp, pad pointer: stride 0).
            emitSpillReloads(b, 2, acc1);
            // Opcode fetch (stride 1, vectorizable) and operand-field
            // decode (dependent chain).
            b.ldq(scratch0, ptr0, 0);
            b.addi(ptr0, ptr0, 8);
            b.srli(scratch3, scratch0, 1);
            b.xori(scratch3, scratch3, 0x2a);

            auto op_concat = b.newLabel();
            auto op_hash = b.newLabel();
            auto op_push = b.newLabel();
            auto next = b.newLabel();

            b.bnez(scratch0, op_concat);
            // op 0: arithmetic on the accumulator (vector dataflow).
            b.slli(scratch1, scratch0, 2);
            b.add(acc0, acc0, scratch1);
            b.addi(acc0, acc0, 13);
            b.br(next);

            b.bind(op_concat);
            b.cmpeqi(scratch1, scratch0, 1);
            b.beqz(scratch1, op_hash);
            // op 1: scan four string cells (stride 1).
            b.andi(scratch2, counter1, subIndexMask(stringsLen, 4));
            b.slli(scratch2, scratch2, 3);
            b.add(scratch2, scratch2, ptr1);
            countedLoop(b, acc2, 4, [&] {
                b.ldq(scratch3, scratch2, 0);
                b.addi(scratch2, scratch2, 8);
                b.add(acc1, acc1, scratch3);
            });
            b.br(next);

            b.bind(op_hash);
            b.cmpeqi(scratch1, scratch0, 2);
            b.beqz(scratch1, op_push);
            // op 2: hash probe (random index) + biased branch.
            emitLcgNext(b, scratch2, std::uint32_t(indexMask(hashLen)));
            b.slli(scratch2, scratch2, 3);
            b.add(scratch2, scratch2, ptr2);
            b.ldq(scratch3, scratch2, 0);
            {
                auto skip = b.newLabel();
                b.cmplti(scratch1, scratch3, 480);
                b.beqz(scratch1, skip);
                b.add(acc0, acc0, scratch3);
                b.bind(skip);
            }
            b.br(next);

            b.bind(op_push);
            // op 3: push/pop the value stack (stride-0 reload).
            b.stq(acc0, ptr3, 0);
            b.ldq(scratch3, ptr3, 0);
            b.add(acc1, acc1, scratch3);
            b.bind(next);
        });
    });

    b.stq(acc0, ptr3, 8);
    b.stq(acc1, ptr3, 16);
    b.halt();
    return b.finish();
}

} // namespace sdv
