/**
 * @file
 * Figure 15: prediction accuracy of the speculative work — the average
 * number of vector register elements that were computed and used
 * (validated), computed but never used, and never computed, at register
 * release (8-way, 128 x 4-element registers). Paper: on average only
 * 1.75 of 3.75 computed elements are validated. Runs through the sweep
 * plan registry ("fig15"); honours --jobs / --checkpoint.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 15 - vector element fates",
                  "avg per released register: ~1.75 computed+used, "
                  "~2.0 computed-not-used, ~0.25 not computed");

    const auto outcomes =
        bench::runGrid(opt, "fig15", "fig15_prediction_accuracy");

    bench::SuiteTable table({"comp. used", "comp. not used", "not comp."});
    for (const sweep::RunOutcome &o : outcomes) {
        table.add(o.workload, o.isFp,
                  {o.res.fates.avgComputedUsed(),
                   o.res.fates.avgComputedNotUsed(),
                   o.res.fates.avgNotComputed()});
    }
    std::printf("%s\n",
                table.render("Average elements per released vector "
                             "register (of 4), 8-way")
                    .c_str());
    return 0;
}
