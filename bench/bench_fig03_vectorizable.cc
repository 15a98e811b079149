/**
 * @file
 * Figure 3: percentage of vectorizable instructions with unbounded
 * resources (paper: ~47% SpecInt, ~51% SpecFP).
 */

#include <cstdio>

#include "harness.hh"
#include "sim/vect_analyzer.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv, /*simulating=*/false);
    bench::banner("Figure 3 - percentage of vectorizable instructions",
                  "unbounded resources: 47% of SpecInt95, 51% of "
                  "SpecFP95 instructions can be vectorized");

    bench::SuiteTable table({"vectorizable", "loads", "arith"});
    bench::forEachWorkload(opt.plan, [&](const Workload &w,
                                         const Program &p) {
        const VectAnalysis a = analyzeVectorizability(p);
        table.add(w.name, w.isFp,
                  {a.fraction(),
                   double(a.vectorizableLoads) / double(a.insts),
                   double(a.vectorizableArith) / double(a.insts)});
    });
    std::printf("%s\n",
                table.render("Vectorizable fraction of dynamic "
                             "instructions", /*percent=*/true, 1)
                    .c_str());
    std::printf("paper reference: INTEGER ~47%%, FP ~51%%\n");
    return 0;
}
