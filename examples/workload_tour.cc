/**
 * @file
 * Tour of the bundled SPEC95-like workloads: build each one, profile
 * its stride mix and vectorizability, and run it on the paper's
 * headline machine.
 */

#include <cstdio>

#include "sim/simulator.hh"
#include "sim/stride_profiler.hh"
#include "sim/vect_analyzer.hh"
#include "workloads/workload.hh"

using namespace sdv;

int
main()
{
    std::printf("%-9s %9s %7s %7s %7s %7s   %s\n", "name", "insts",
                "stride0", "vect%", "IPC", "val%", "description");
    for (const Workload &w : allWorkloads()) {
        const Program prog = w.instantiate(1);
        const StrideProfile sp = profileStrides(prog);
        const VectAnalysis va = analyzeVectorizability(prog);
        const SimResult r =
            simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
        std::printf("%-9s %9llu %6.1f%% %6.1f%% %7.2f %6.1f%%   %s\n",
                    w.name.c_str(), (unsigned long long)va.insts,
                    100.0 * sp.strideHist.fraction(0),
                    100.0 * va.fraction(), r.core.ipc(),
                    100.0 * r.validationFraction(),
                    w.description.c_str());
        if (!r.verified)
            std::printf("  WARNING: %s failed verification!\n",
                        w.name.c_str());
    }
    return 0;
}
