/**
 * @file
 * Ablations over the mechanism's sizing knobs (the paper fixes 128
 * registers x 4 elements and a confidence threshold of 2; Section 4.1
 * justifies VL=4 by the short average vector lengths of Spec95):
 *   - vector register count (8 ... 128),
 *   - vector length (2 / 4 / 8),
 *   - TL confidence threshold (1 / 2 / 3).
 * Reported as suite-average IPC on the 4-way, 1-wide-port machine.
 *
 * The (workload x knob) grid lives in the sweep plan registry
 * ("ablation") and runs through the sweep executor: --jobs
 * parallelizes it, --checkpoint forks each workload's compatible
 * configurations from one warm snapshot, and --scale/--footprint/
 * --samples select the scaled measurement pipeline.
 */

#include <cstdio>

#include "common/log.hh"
#include "harness.hh"

using namespace sdv;

namespace {

/** Suite-average IPC of ablation column @p column. */
double
columnIpc(const std::vector<sweep::RunOutcome> &outcomes,
          const std::string &column)
{
    double sum = 0;
    unsigned n = 0;
    for (const sweep::RunOutcome &o : outcomes)
        if (o.column == column) {
            sum += o.res.ipc;
            ++n;
        }
    sdv_assert(n > 0, "unknown ablation column ", column);
    return sum / n;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner("Ablation - vector registers, vector length, TL "
                  "confidence",
                  "the paper fixes 128 x 4 x 64-bit and confidence 2; "
                  "these sweeps show the sensitivity of that choice");

    const auto outcomes = bench::runGrid(opt, "ablation", "ablation_resources");
    const double base = columnIpc(outcomes, "base");

    std::printf("baseline (128 regs, VL 4, conf 2): IPC %.3f\n\n", base);

    std::printf("vector register count:\n");
    for (unsigned regs : {8u, 16u, 32u, 64u, 128u})
        std::printf("  %3u regs : IPC %.3f\n", regs,
                    regs == 128u
                        ? base
                        : columnIpc(outcomes,
                                    "vregs" + std::to_string(regs)));

    std::printf("\nvector length (elements per register):\n");
    for (unsigned vl : {2u, 4u, 8u})
        std::printf("  VL %u    : IPC %.3f\n", vl,
                    vl == 4u ? base
                             : columnIpc(outcomes,
                                         "vlen" + std::to_string(vl)));

    std::printf("\nTable of Loads confidence threshold:\n");
    for (unsigned conf : {1u, 2u, 3u})
        std::printf("  conf %u  : IPC %.3f\n", conf,
                    conf == 2u ? base
                               : columnIpc(outcomes,
                                           "conf" + std::to_string(conf)));

    std::printf("\nwide-bus ride-along disabled (scalar ports + SDV):\n");
    std::printf("  1 scalar port + SDV : IPC %.3f (vs %.3f with the "
                "wide bus)\n",
                columnIpc(outcomes, "scalarbus"), base);
    return 0;
}
