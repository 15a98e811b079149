/**
 * @file
 * Figure 7: IPC with decode blocking on not-ready captured-scalar
 * operands (real) versus no blocking (ideal), 4-way, one wide port,
 * 128 vector registers. The real/ideal pair comes from the sweep plan
 * registry ("fig07") and honours --jobs / --checkpoint.
 */

#include <cstdio>

#include "harness.hh"

using namespace sdv;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Figure 7 - IPC blocking vs not blocking mixed-operand "
                  "vector instructions",
                  "blocking on a not-ready scalar operand costs little "
                  "(real vs ideal bars nearly equal)");

    const auto outcomes = bench::runGrid(opt, "fig07", "fig07_scalar_blocking");

    bench::SuiteTable table({"real", "ideal", "loss"});
    // Plan order: per workload, "real" then "ideal".
    for (size_t i = 0; i + 1 < outcomes.size(); i += 2) {
        const sweep::RunOutcome &real = outcomes[i];
        const sweep::RunOutcome &ideal = outcomes[i + 1];
        const double loss =
            ideal.res.ipc > 0
                ? (ideal.res.ipc - real.res.ipc) / ideal.res.ipc
                : 0.0;
        table.add(real.workload, real.isFp,
                  {real.res.ipc, ideal.res.ipc, 100.0 * loss});
    }
    std::printf("%s\n",
                table.render("IPC, 4-way, 1 wide port, 128 vregs "
                             "(loss column in %)")
                    .c_str());
    return 0;
}
