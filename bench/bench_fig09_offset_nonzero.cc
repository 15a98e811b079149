/**
 * @file
 * Figure 9: percentage of vector instructions whose source operands
 * start at a non-zero element offset (8-way, 128 vector registers).
 * The paper reports this is low everywhere (< ~25%). Runs through the
 * sweep plan registry ("fig09"); honours --jobs / --checkpoint.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 9 - vector instructions with source offset != 0",
                  "the fraction of vector instances whose sources start "
                  "mid-register is low");

    const auto outcomes = bench::runGrid(opt, "fig09", "fig09_offset_nonzero");

    bench::SuiteTable table({"offset!=0"});
    for (const sweep::RunOutcome &o : outcomes) {
        const double frac =
            o.res.datapath.arithInstances == 0
                ? 0.0
                : double(o.res.datapath.instancesWithNonzeroSrcOffset) /
                      double(o.res.datapath.arithInstances);
        table.add(o.workload, o.isFp, {frac});
    }
    std::printf("%s\n",
                table.render("Vector arithmetic instances with a "
                             "non-zero source offset, 8-way",
                             /*percent=*/true, 1)
                    .c_str());
    return 0;
}
