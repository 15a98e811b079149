/**
 * @file
 * The paper's headline prose claims, measured:
 *  - a 4-way core with 1 wide bus + SDV is 19% faster than the same
 *    core with 4 scalar buses (abstract / Section 1);
 *  - memory requests drop 15% (SpecInt) / 20% (SpecFP) (Section 1);
 *  - SDV raises 4-way 1-wide-bus IPC by 21.2% (SpecInt) / 8.1%
 *    (SpecFP) (Section 6);
 *  - 4-way 1 wide port + SDV is ~3% faster than 8-way with 4 scalar
 *    ports (Section 6);
 *  - stores hitting a vector register range: 4.5% / 2.5% (Section 3.6).
 *
 * The four machines live in the sweep plan registry ("headline") and
 * run through the sweep executor, so --jobs/--checkpoint/--warmup and
 * the --scale/--footprint/--samples pipeline all apply — with the
 * exact same measured statistics and JSON records as the legacy
 * per-workload loops.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Headline claims (abstract, Sections 1, 3.6 and 6)",
                  "speedups, memory-request reductions, store conflict "
                  "rates");

    const auto outcomes = bench::runGrid(opt, "headline", "headline_claims");

    double int_cycles_v = 0, int_cycles_4p = 0, int_cycles_im = 0;
    double fp_cycles_v = 0, fp_cycles_4p = 0, fp_cycles_im = 0;
    double cycles_8w4p = 0, cycles_v_total = 0;
    double int_req_v = 0, int_req_im = 0, fp_req_v = 0, fp_req_im = 0;
    double int_conf = 0, fp_conf = 0;
    unsigned n_int = 0, n_fp = 0;

    // Outcomes arrive workload-major in grid order: V, IM, 4p, 8w4p.
    for (std::size_t i = 0; i + 3 < outcomes.size(); i += 4) {
        const SimResult &v = outcomes[i].res;
        const SimResult &im = outcomes[i + 1].res;
        const SimResult &s4p = outcomes[i + 2].res;
        const SimResult &w8 = outcomes[i + 3].res;

        const double conf =
            v.engine.storesChecked
                ? double(v.engine.storeRangeConflicts) /
                      double(v.engine.storesChecked)
                : 0.0;
        if (outcomes[i].isFp) {
            fp_cycles_v += double(v.cycles);
            fp_cycles_im += double(im.cycles);
            fp_cycles_4p += double(s4p.cycles);
            fp_req_v += double(v.memoryRequests());
            fp_req_im += double(im.memoryRequests());
            fp_conf += conf;
            ++n_fp;
        } else {
            int_cycles_v += double(v.cycles);
            int_cycles_im += double(im.cycles);
            int_cycles_4p += double(s4p.cycles);
            int_req_v += double(v.memoryRequests());
            int_req_im += double(im.memoryRequests());
            int_conf += conf;
            ++n_int;
        }
        cycles_8w4p += double(w8.cycles);
        cycles_v_total += double(v.cycles);
    }

    const double cycles_v = int_cycles_v + fp_cycles_v;
    const double cycles_4p = int_cycles_4p + fp_cycles_4p;

    std::printf("4-way, 1 wide port + SDV  vs  4-way, 4 scalar ports:\n");
    std::printf("  speedup: %+.1f%%   (paper: +19%%)\n\n",
                100.0 * (cycles_4p / cycles_v - 1.0));

    std::printf("memory requests, 1pV vs 1pIM (4-way):\n");
    std::printf("  SpecInt: %+.1f%%   (paper: -15%%)\n",
                100.0 * (int_req_v / int_req_im - 1.0));
    std::printf("  SpecFP:  %+.1f%%   (paper: -20%%)\n\n",
                100.0 * (fp_req_v / fp_req_im - 1.0));

    std::printf("IPC uplift of SDV on a 4-way, 1 wide port machine:\n");
    std::printf("  SpecInt: %+.1f%%   (paper: +21.2%%)\n",
                100.0 * (int_cycles_im / int_cycles_v - 1.0));
    std::printf("  SpecFP:  %+.1f%%   (paper: +8.1%%)\n\n",
                100.0 * (fp_cycles_im / fp_cycles_v - 1.0));

    std::printf("4-way 1 wide port + SDV  vs  8-way 4 scalar ports:\n");
    std::printf("  speedup: %+.1f%%   (paper: +3%%)\n\n",
                100.0 * (cycles_8w4p / cycles_v_total - 1.0));

    std::printf("stores hitting a vector register range (Section 3.6):\n");
    std::printf("  SpecInt: %5.2f%%   (paper: 4.5%%)\n",
                100.0 * int_conf / (n_int ? n_int : 1));
    std::printf("  SpecFP:  %5.2f%%   (paper: 2.5%%)\n",
                100.0 * fp_conf / (n_fp ? n_fp : 1));
    return 0;
}
