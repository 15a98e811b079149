/**
 * @file
 * Figure 14: percentage of committed instructions that are turned into
 * validation operations (8-way, one wide bus). Paper: 28% for SpecInt,
 * 23% for SpecFP. Runs through the sweep plan registry ("fig14");
 * honours --jobs / --checkpoint.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 14 - percentage of validation instructions",
                  "28% of SpecInt and 23% of SpecFP instructions "
                  "validate a vector element instead of executing");

    const auto outcomes = bench::runGrid(opt, "fig14", "fig14_validations");

    bench::SuiteTable table({"validations", "load vals", "arith vals"});
    for (const sweep::RunOutcome &o : outcomes) {
        const double total = double(o.res.insts ? o.res.insts : 1);
        table.add(o.workload, o.isFp,
                  {o.res.validationFraction(),
                   double(o.res.core.committedLoadValidations) / total,
                   double(o.res.core.committedValidations -
                          o.res.core.committedLoadValidations) /
                       total});
    }
    std::printf("%s\n",
                table.render("Committed validations / committed "
                             "instructions, 8-way, 1 wide port",
                             /*percent=*/true, 1)
                    .c_str());
    return 0;
}
