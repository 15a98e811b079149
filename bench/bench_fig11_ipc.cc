/**
 * @file
 * Figure 11 (the headline figure): IPC for the 8-way and 4-way
 * processors with 1, 2 and 4 L1D ports, each scalar (xpnoIM), wide
 * (xpIM) or wide + dynamic vectorization (xpV).
 *
 * The grid itself lives in the sweep plan registry ("fig11") and runs
 * through the sweep executor: --jobs N parallelizes it and
 * --checkpoint forks every configuration from a warmed snapshot, both
 * without changing a single reported statistic (per-run results are
 * scheduling-independent).
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 11 - IPC by port count, bus width and "
                  "dynamic vectorization",
                  "a 4-way processor with one wide bus + SDV beats the "
                  "same processor with 4 scalar buses by ~19%");

    const auto outcomes = bench::runGrid(opt, "fig11", "fig11_ipc");
    const auto ipc = [](const sweep::RunOutcome &o) {
        return o.res.ipc;
    };
    for (const char *group : {"8w", "4w"}) {
        std::printf(
            "%s\n",
            bench::pivotTable(outcomes, group, ipc)
                .render("IPC, " + std::string(group == std::string("8w")
                                                  ? "8"
                                                  : "4") +
                        "-way processor")
                .c_str());
    }

    return 0;
}
