/**
 * @file
 * `ijpeg` stand-in: block-based image transforms. Dense stride-1 pixel
 * loops with multiply-accumulate dataflow and highly predictable
 * control — the most vectorizable SpecInt95 member (~70% in Figure 3).
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildIjpeg(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // dim x dim image plus the same-size output plane: 64KB at the
    // seed 64x64, 144KB at 96x96 (L2), 1MB at 256x256 (mem). The seed
    // filter touches 12 rows per pass; the grown modes filter the
    // whole plane so the streamed footprint matches the allocation.
    const std::int32_t dim = byFootprint(fp, 64, 96, 256);
    const std::size_t planeWords = std::size_t(dim) * std::size_t(dim);
    const std::int32_t rows = byFootprint(fp, 12, dim, dim);
    // Per-pass pixels: 768 seed, 9216 L2 (12x), 65536 mem (85x).
    const std::int32_t passes =
        scaledPasses("ijpeg", scale, 24, byFootprint(fp, 1u, 12u, 85u));

    ProgramBuilder b;
    Random rng(0x17e6 ^ fuzz_seed);

    const Addr image = b.allocWords("image", planeWords);
    const Addr coeff = b.allocWords("coeff", 8);
    const Addr out = b.allocWords("out", planeWords);
    const Addr frame = b.allocWords("frame", 32);
    fillRandomWords(b, image, planeWords, rng, 256);
    fillWords(b, coeff, 8, [](size_t i) { return 2 * i + 1; });

    b.loadAddr(ptr2, coeff);
    b.loadAddr(framePtr, frame);

    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, image);
        b.loadAddr(ptr1, out);
        // One filtering pass over the first `rows` image rows.
        countedLoop(b, counter1, rows, [&] {
            b.ldq(scratch3, ptr2, 0); // coefficient reload (stride 0)
            // Row body: dim pixels, stride 1 load, a deep vectorizable
            // MAC chain, stride 1 store.
            b.ldi(acc2, dim);
            const auto row = b.here();
            b.ldq(scratch0, ptr0, 0);
            b.addi(ptr0, ptr0, 8);
            b.mul(scratch1, scratch0, scratch3);
            b.srai(scratch1, scratch1, 2);
            b.add(scratch1, scratch1, scratch0);
            b.xori(scratch2, scratch1, 0x3c);
            b.slli(scratch2, scratch2, 1);
            b.add(scratch1, scratch1, scratch2);
            b.andi(scratch1, scratch1, 0xffff);
            b.stq(scratch1, ptr1, 0);
            b.addi(ptr1, ptr1, 8);
            b.addi(acc2, acc2, -1);
            b.bnez(acc2, row);
        });
    });

    // Checksum pass (stride 1) and publish.
    b.loadAddr(ptr1, out);
    b.ldi(acc0, 0);
    countedLoop(b, counter0, dim * 4, [&] {
        b.ldq(scratch0, ptr1, 0);
        b.addi(ptr1, ptr1, 8);
        b.add(acc0, acc0, scratch0);
    });
    b.loadAddr(ptr3, image);
    b.stq(acc0, ptr3, 0);
    b.halt();
    return b.finish();
}

} // namespace sdv
