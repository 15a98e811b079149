/**
 * @file
 * Figure 1: stride distribution for SpecInt95 and SpecFP95 (stride in
 * elements = address delta / access size, buckets 0..9), plus the
 * Section 2 claim that strides below 4 elements cover 97.9% (SpecInt)
 * and 81.3% (SpecFP) of strided loads.
 */

#include <cstdio>

#include "common/table.hh"
#include "harness.hh"
#include "sim/stride_profiler.hh"
#include "sweep/report.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    std::fputs(sweep::banner("Figure 1 - stride distribution",
                             "stride 0 most frequent for both suites; "
                             "<4-element strides are 97.9% (INT) / "
                             "81.3% (FP) of strided loads")
                   .c_str(),
               stdout);

    // Benchmarks are weighted equally (each SPEC program contributed
    // the same 100M-instruction sample in the paper).
    double int_frac[11] = {}, fp_frac[11] = {};
    double int_lt4 = 0, fp_lt4 = 0;
    unsigned n_int = 0, n_fp = 0;

    bench::forEachWorkload(opt.plan, [&](const Workload &w,
                                         const Program &p) {
        const StrideProfile prof = profileStrides(p);
        double *frac = w.isFp ? fp_frac : int_frac;
        for (unsigned s = 0; s < 10; ++s)
            frac[s] += prof.strideHist.fraction(s);
        frac[10] += prof.strideHist.overflowFraction();
        (w.isFp ? fp_lt4 : int_lt4) += prof.stridedBelow4Fraction();
        (w.isFp ? n_fp : n_int) += 1;
    });
    for (unsigned s = 0; s <= 10; ++s) {
        int_frac[s] /= n_int ? n_int : 1;
        fp_frac[s] /= n_fp ? n_fp : 1;
    }

    TextTable t("Stride distribution (percentage of dynamic stride "
                "samples, benchmarks equally weighted)");
    t.setHeader({"stride (elements)", "SpecInt", "SpecFP"});
    for (unsigned s = 0; s < 10; ++s) {
        t.addRow({std::to_string(s), TextTable::percent(int_frac[s]),
                  TextTable::percent(fp_frac[s])});
    }
    t.addSeparator();
    t.addRow({">9 / irregular", TextTable::percent(int_frac[10]),
              TextTable::percent(fp_frac[10])});
    std::printf("%s\n", t.render().c_str());

    std::printf("strided loads with |stride| < 4 elements:\n");
    std::printf("  SpecInt: %5.1f%%   (paper: 97.9%%)\n",
                100.0 * int_lt4 / (n_int ? n_int : 1));
    std::printf("  SpecFP:  %5.1f%%   (paper: 81.3%%)\n",
                100.0 * fp_lt4 / (n_fp ? n_fp : 1));
    return 0;
}
