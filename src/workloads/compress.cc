/**
 * @file
 * `compress` stand-in: LZW-style compression loop — a stride-1 input
 * stream feeds a multiplicative hash whose table probes are effectively
 * random, with a poorly-biased hit/miss branch and a stride-1 output
 * writer. Figure 13 shows compress wasting the most speculative wide
 * accesses; the hash probes reproduce that behaviour.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildCompress(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // The randomly probed hash table dominates the footprint:
    // 32KB / 128KB / 1MB, flanked by the streamed input and the output
    // (each the input's size).
    const std::size_t inputLen =
        byFootprint<std::size_t>(fp, 2048, 4096, 16384);
    const std::size_t htabLen =
        byFootprint<std::size_t>(fp, 4096, 16384, 131072);
    const std::int32_t passes =
        scaledPasses("compress", scale, 1, byFootprint(fp, 1u, 2u, 8u));

    ProgramBuilder b;
    Random rng(0xc0457 ^ fuzz_seed);

    const Addr input = b.allocWords("input", inputLen);
    const Addr htab = b.allocWords("htab", htabLen);
    const Addr output = b.allocWords("output", inputLen);
    const Addr frame = b.allocWords("frame", 32);
    fillRandomWords(b, input, inputLen, rng, 256);
    fillRandomWords(b, htab, htabLen, rng, 2);

    b.loadAddr(ptr1, htab);
    b.loadAddr(framePtr, frame);
    b.ldi(acc0, 0);   // running code
    b.ldi(acc1, 0);   // output count

    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, input);
        b.loadAddr(ptr2, output);
        countedLoop(b, counter1, std::int32_t(inputLen), [&] {
            // Compressor-state reloads (bit budget, free code: stride 0).
            emitSpillReloads(b, 2, acc1);
            // Next input symbol (stride 1, vectorizable).
            b.ldq(scratch0, ptr0, 0);
            b.addi(ptr0, ptr0, 8);

            // Symbol preprocessing (vectorizable chain off the load).
            b.slli(scratch3, scratch0, 3);
            b.xori(scratch3, scratch3, 0xa5);
            b.sub(scratch3, scratch3, scratch0);
            b.andi(scratch3, scratch3, 0xfff);

            // code = code << 4 ^ symbol (reduction; re-vectorizes).
            b.slli(scratch1, acc0, 4);
            b.xor_(acc0, scratch1, scratch3);

            // Multiplicative hash -> random table probe.
            b.loadImm64(scratch2, 2654435761ULL);
            b.mul(scratch1, acc0, scratch2);
            b.srli(scratch1, scratch1, 20);
            b.andi(scratch1, scratch1, indexMask(htabLen));
            b.slli(scratch1, scratch1, 3);
            b.add(ptr3, ptr1, scratch1);
            b.ldq(scratch2, ptr3, 0);

            // Hit/miss branch: close to 50/50, hard to predict.
            auto hit = b.newLabel();
            auto cont = b.newLabel();
            b.bnez(scratch2, hit);
            // miss: install entry, emit a literal (stride-1 store)
            b.stq(scratch0, ptr3, 0);
            b.stq(scratch0, ptr2, 0);
            b.addi(ptr2, ptr2, 8);
            b.addi(acc1, acc1, 1);
            b.br(cont);
            b.bind(hit);
            // hit: extend the phrase
            b.add(acc0, acc0, scratch2);
            b.bind(cont);
        });
    });

    b.loadAddr(ptr3, output);
    b.stq(acc0, ptr3, std::int32_t(8 * (inputLen - 2)));
    b.stq(acc1, ptr3, std::int32_t(8 * (inputLen - 1)));
    b.halt();
    return b.finish();
}

} // namespace sdv
