/**
 * @file
 * Figure 13: effectiveness of wide buses — the percentage of read line
 * accesses contributing 1, 2, 3 or 4 useful words and the percentage
 * of entirely speculative (unused) accesses, 4-way, one wide port,
 * with dynamic vectorization. Runs through the sweep plan registry
 * ("fig13"); honours --jobs / --checkpoint.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 13 - useful words per wide-bus line read",
                  "most accesses serve multiple words; unused "
                  "(speculative) accesses are small except compress");

    const auto outcomes = bench::runGrid(opt, "fig13", "fig13_wide_bus");

    bench::SuiteTable table({"1pos", "2pos", "3pos", "4pos", "unused"});
    for (const sweep::RunOutcome &o : outcomes) {
        table.add(o.workload, o.isFp,
                  {o.res.wideBus.fraction(1), o.res.wideBus.fraction(2),
                   o.res.wideBus.fraction(3), o.res.wideBus.fraction(4),
                   o.res.wideBus.unusedFraction()});
    }
    std::printf("%s\n",
                table.render("Read line accesses by useful word count, "
                             "4-way, 1 wide port",
                             /*percent=*/true, 1)
                    .c_str());
    return 0;
}
