/**
 * @file
 * `swim` stand-in: shallow-water-equation stencils — dense stride-1
 * double loads from three grids, multiply-add chains, stride-1 stores
 * and spill-style stride-0 coefficient reloads. The most vectorizable
 * FP member (~70% in Figure 3) with near-perfect branch prediction.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildSwim(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // Three streamed double grids of n elements: 50KB / 192KB / 1.5MB.
    const std::size_t n = byFootprint<std::size_t>(fp, 2048, 8192, 65536);
    const std::int32_t passes =
        scaledPasses("swim", scale, 5, byFootprint(fp, 1u, 4u, 32u));

    ProgramBuilder b;

    const Addr u = b.allocWords("u", n + 8);
    const Addr v = b.allocWords("v", n + 72);
    const Addr p = b.allocWords("p", n + 8);
    const Addr consts = b.allocWords("consts", 4);
    const double fz = fuzzOffset(fuzz_seed);
    fillDoubles(b, u, n + 8,
                [=](size_t i) { return 0.25 + fz + 0.001 * i; });
    fillDoubles(b, v, n + 72,
                [=](size_t i) { return 1.5 + fz - 0.0005 * i; });
    fillDoubles(b, consts, 4,
                [=](size_t i) { return 0.5 + fz + 0.125 * i; });

    const RegId fu0 = 33, fu1 = 34, fv0 = 35, fc = 36, facc = 37,
                ftmp = 38;

    b.loadAddr(ptr3, consts);
    b.ldi(scratch0, 0);
    b.cvtif(facc, scratch0);

    const RegId idx = 16;
    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, u);
        b.loadAddr(ptr1, v);
        b.loadAddr(ptr2, p);
        b.ldi(idx, 0);
        countedLoop(b, counter1, std::int32_t(n), [&] {
            // Explicit index arithmetic, as compiled array code does
            // (scalar overhead that never vectorizes).
            b.slli(scratch0, idx, 3);
            b.add(scratch1, ptr0, scratch0); // &u[i]
            b.add(scratch2, ptr1, scratch0); // &v[i]
            b.add(scratch3, ptr2, scratch0); // &p[i]
            // Spill-style coefficient reloads: stride 0.
            b.fld(fc, ptr3, 0);
            b.fld(ftmp, ptr3, 8);
            b.fadd(fc, fc, ftmp);
            // Stencil reads: u[i], u[i+1], v[i+64]; all stride 1.
            b.fld(fu0, scratch1, 0);
            b.fld(fu1, scratch1, 8);
            b.fld(fv0, scratch2, 8 * 64);
            // p[i] = c*(u[i] + u[i+1]) - v[i+64]
            b.fadd(ftmp, fu0, fu1);
            b.fmul(ftmp, ftmp, fc);
            b.fsub(ftmp, ftmp, fv0);
            b.fst(ftmp, scratch3, 0);
            b.fadd(facc, facc, ftmp);
            b.addi(idx, idx, 1);
        });
    });

    b.loadAddr(ptr2, p);
    b.fst(facc, ptr2, std::int32_t(8 * (n + 4)));
    b.halt();
    return b.finish();
}

} // namespace sdv
