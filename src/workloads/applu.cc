/**
 * @file
 * `applu` stand-in: a banded SSOR-style solver sweep. The inner loop
 * is unrolled by two (the compiler effect Section 2 describes), so the
 * static loads stride by 2 elements; an occasional divide adds long
 * latency chains.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildApplu(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // Three banded arrays of n doubles: 37KB / 148KB / 1.2MB.
    const std::size_t n = byFootprint<std::size_t>(fp, 1536, 6144, 49152);
    const std::int32_t passes =
        scaledPasses("applu", scale, 12, byFootprint(fp, 1u, 4u, 32u));

    ProgramBuilder b;

    const Addr a = b.allocWords("a", n + 16);
    const Addr rhs = b.allocWords("rhs", n + 16);
    const Addr x = b.allocWords("x", n + 16);
    const Addr pivots = b.allocWords("pivots", 4);
    const double fz = fuzzOffset(fuzz_seed);
    fillDoubles(b, a, n + 16,
                [=](size_t i) { return 1.0 + fz + 0.01 * (i % 97); });
    fillDoubles(b, rhs, n + 16,
                [=](size_t i) { return 2.0 + fz - 0.002 * (i % 53); });
    fillDoubles(b, pivots, 4,
                [=](size_t i) { return 0.9 + fz + 0.02 * i; });

    const RegId fa0 = 33, fa1 = 34, fr0 = 35, fr1 = 36, fx0 = 37,
                fx1 = 38, facc = 39, fden = 40, fpiv = 41;

    b.loadAddr(ptr3, pivots);
    b.ldi(scratch0, 0);
    b.cvtif(facc, scratch0);

    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, a);
        b.loadAddr(ptr1, rhs);
        b.loadAddr(ptr2, x);
        // Unrolled-by-2 band sweep: every static access strides by 2
        // elements.
        b.ldi(acc2, 0); // element index
        countedLoop(b, counter1, std::int32_t(n / 2), [&] {
            // Explicit banded-index arithmetic (scalar overhead).
            b.slli(scratch0, acc2, 4);
            b.add(scratch2, ptr0, scratch0); // &a[2j]
            b.add(scratch3, ptr1, scratch0); // &rhs[2j]
            // Spilled pivot reloads (stride 0).
            b.fld(fpiv, ptr3, 0);
            b.fld(fa0, scratch2, 0);
            b.fld(fa1, scratch2, 8);
            b.fld(fr0, scratch3, 0);
            b.fld(fr1, scratch3, 8);
            b.fmul(fx0, fa0, fr0);
            b.fmul(fx1, fa1, fr1);
            b.fadd(fx0, fx0, fx1);
            b.fmul(fx0, fx0, fpiv);
            b.fst(fx0, ptr2, 0);
            b.fadd(facc, facc, fx0);
            b.addi(acc2, acc2, 1);
            b.addi(ptr2, ptr2, 16);
            // A divide every 32nd pair: long-latency FP chain.
            b.andi(scratch1, counter1, 31);
            auto no_div = b.newLabel();
            b.bnez(scratch1, no_div);
            b.fadd(fden, fa0, fa1);
            b.fdiv(facc, facc, fden);
            b.bind(no_div);
        });
    });

    b.loadAddr(ptr2, x);
    b.fst(facc, ptr2, std::int32_t(8 * (n + 8)));
    b.halt();
    return b.finish();
}

} // namespace sdv
