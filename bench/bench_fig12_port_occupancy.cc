/**
 * @file
 * Figure 12: L1D port occupancy for the same machine matrix as Figure
 * 11 — dynamic vectorization relieves port pressure even though it
 * issues speculative element loads. The matrix comes from the sweep
 * plan registry ("fig12") and honours --jobs / --checkpoint.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 12 - L1D bus occupancy",
                  "wide buses and vectorization both cut occupancy; the "
                  "1-port configurations are the most contended");

    const auto outcomes = bench::runGrid(opt, "fig12", "fig12_port_occupancy");
    const auto occupancy = [](const sweep::RunOutcome &o) {
        return o.res.ports.occupancy(o.cfg.dcachePorts);
    };
    for (const char *group : {"8w", "4w"}) {
        std::printf(
            "%s\n",
            bench::pivotTable(outcomes, group, occupancy)
                .render("Port occupancy, " +
                            std::string(group == std::string("8w")
                                            ? "8"
                                            : "4") +
                            "-way processor",
                        /*percent=*/true, 1)
                .c_str());
    }
    return 0;
}
