/**
 * @file
 * `turb3d` stand-in: FFT-like butterfly passes over a signal at
 * strides 1, 2, 4 and 8 (the large strides give SpecFP its Figure 1
 * tail beyond 4 elements), with stride-0 twiddle-factor reloads.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildTurb3d(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // Ping-pong signal buffers of n doubles (33KB / 192KB / 2MB). The
    // seed butterfly counts touch a few KB per pass; the grown modes
    // sweep the whole buffer at every stride (span pairs*stride ~ n).
    const std::size_t n = byFootprint<std::size_t>(fp, 2048, 12288, 131072);
    // Butterfly pairs per pass, indexed by stride (1, 2, 4 and 8).
    const std::int32_t sweep = std::int32_t(n) - 1024; // grown spans
    const bool seed = fp == Footprint::Base;
    std::int32_t pairsFor[9] = {};
    pairsFor[1] = seed ? 224 : sweep;
    pairsFor[2] = seed ? 224 : sweep / 2;
    pairsFor[4] = seed ? 96 : sweep / 4;
    pairsFor[8] = seed ? 96 : sweep / 8;
    // Total pairs per outer pass: 864 seed, ~37x at L2, ~432x at mem.
    const std::int32_t passes =
        scaledPasses("turb3d", scale, 5, byFootprint(fp, 1u, 37u, 432u));

    ProgramBuilder b;

    const Addr sig = b.allocWords("sig", n + 64);
    const Addr out = b.allocWords("outbuf", n + 64);
    const Addr twiddle = b.allocWords("twiddle", 4);
    const double fz = fuzzOffset(fuzz_seed);
    fillDoubles(b, sig, n + 64, [=](size_t i) {
        return 0.001 * double(i % 611) - 0.3 + fz;
    });
    fillDoubles(b, twiddle, 4,
                [=](size_t i) { return 0.7 + fz + 0.05 * i; });

    const RegId fx = 33, fy = 34, fw = 35, ft = 36, facc = 37;

    b.loadAddr(ptr3, twiddle);
    b.ldi(scratch0, 0);
    b.cvtif(facc, scratch0);

    countedLoop(b, counter0, passes, [&] {
        // One butterfly pass per stride in {1, 2, 4, 8}; short strides
        // dominate as in a real decimation (81% of strided accesses
        // stay below 4 elements for SpecFP in the paper).
        for (unsigned stride : {1u, 1u, 2u, 4u, 8u}) {
            const std::int32_t pairs = pairsFor[stride];
            // Out-of-place butterflies (ping-pong buffers): the output
            // buffer is distinct from the streamed input, as in an FFT
            // that alternates between two work arrays.
            b.loadAddr(ptr0, sig);
            b.loadAddr(ptr1, out);
            b.ldi(acc2, 0); // butterfly index
            countedLoop(b, counter1, pairs, [&] {
                // Bit-reversal-style index bookkeeping (scalar).
                b.slli(scratch0, acc2, 3);
                b.mul(scratch1, acc2, counter1);
                b.xor_(acc1, acc1, scratch1);
                b.add(scratch2, ptr0, scratch0);
                b.fld(fw, ptr3, 0); // twiddle reload (stride 0)
                b.fld(fx, ptr0, 0);
                b.fld(fy, ptr0, std::int32_t(8 * stride));
                b.fmul(ft, fy, fw);
                b.fadd(fy, fx, ft);
                b.fsub(fx, fx, ft);
                b.fst(fy, ptr1, 0);
                b.fst(fx, ptr1, std::int32_t(8 * stride));
                b.fadd(facc, facc, fy);
                b.addi(acc2, acc2, 1);
                b.addi(ptr0, ptr0, std::int32_t(8 * stride));
                b.addi(ptr1, ptr1, std::int32_t(8 * stride));
            });
        }
    });

    b.loadAddr(ptr0, sig);
    b.fst(facc, ptr0, std::int32_t(8 * (n + 32)));
    b.halt();
    return b.finish();
}

} // namespace sdv
