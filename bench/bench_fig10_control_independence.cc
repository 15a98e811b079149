/**
 * @file
 * Figure 10: control-flow independence — among the 100 instructions
 * that follow a mispredicted branch, the fraction that are reused
 * (committed as validations of vector elements computed before the
 * misprediction). Paper: ~17% for SpecInt. Runs through the sweep
 * plan registry ("fig10"); honours --jobs / --checkpoint.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 10 - control-flow independence reuse",
                  "~17% of the 100 instructions after a mispredicted "
                  "branch are reused from vector registers (SpecInt)");

    const auto outcomes =
        bench::runGrid(opt, "fig10", "fig10_control_independence");

    bench::SuiteTable table({"reused", "window insts/total"});
    for (const sweep::RunOutcome &o : outcomes) {
        const double window_share =
            o.res.insts == 0
                ? 0.0
                : double(o.res.core.postMispredictWindowInsts) /
                      double(o.res.insts);
        table.add(o.workload, o.isFp,
                  {o.res.controlIndependenceFraction(), window_share});
    }
    std::printf("%s\n",
                table.render("Post-mispredict window reuse, 4-way, "
                             "1 wide port",
                             /*percent=*/true, 1)
                    .c_str());
    std::printf("paper: 17%% reuse for SpecInt; post-mispredict windows "
                "cover 10.53%% of SpecInt instructions\n");
    return 0;
}
