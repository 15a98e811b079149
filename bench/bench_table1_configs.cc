/**
 * @file
 * Table 1: the machine parameters of both evaluated processors, plus
 * the Section 4.1 storage accounting of the additional structures
 * (4KB vector register file + 4608B VRMT + 49152B TL = ~56KB), and
 * the workload footprints the evaluation runs over at the requested
 * --scale / --footprint.
 *
 * The machines come from the sweep plan registry (the Figure 11 grid's
 * 1pV columns), so this table can never drift from what the sweeps
 * actually simulate.
 */

#include <cstdio>

#include "common/log.hh"
#include "harness.hh"

using namespace sdv;

namespace {

/** @return the registry's 1pV machine of @p width ("4w"/"8w"). */
CoreConfig
registryConfig(unsigned width)
{
    const std::string group = std::to_string(width) + "w";
    for (const sweep::GridConfig &g : sweep::figureGrid("fig11"))
        if (g.group == group && g.column == "1pV")
            return g.cfg;
    fatal("fig11 grid lost its ", group, "/1pV column");
}

void
printConfig(unsigned width)
{
    const CoreConfig cfg = registryConfig(width);
    std::printf("%u-way processor\n", width);
    std::printf("  fetch/decode/issue/commit width : %u/%u/%u/%u\n",
                cfg.fetchWidth, cfg.decodeWidth, cfg.issueWidth,
                cfg.commitWidth);
    std::printf("  instruction window (ROB)        : %u\n",
                cfg.robEntries);
    std::printf("  load/store queue                : %u\n",
                cfg.lsqEntries);
    std::printf("  scalar FUs (int/intMulDiv/fpAdd/fpMulDiv): "
                "%u/%u/%u/%u\n",
                cfg.fu.intAlu, cfg.fu.intMulDiv, cfg.fu.fpAdd,
                cfg.fu.fpMulDiv);
    std::printf("  vector FUs (int/intMulDiv/fpAdd/fpMulDiv): "
                "%u/%u/%u/%u\n",
                cfg.engine.fu.intAlu, cfg.engine.fu.intMulDiv,
                cfg.engine.fu.fpAdd, cfg.engine.fu.fpMulDiv);
    std::printf("  branch predictor                : gshare, %u entries\n",
                cfg.gshareEntries);
    std::printf("  L1I: %lluKB %u-way %uB lines, %llu-cycle hit\n",
                (unsigned long long)cfg.mem.l1iSize / 1024,
                cfg.mem.l1iAssoc, cfg.mem.l1iLineBytes,
                (unsigned long long)cfg.mem.l1iHitCycles);
    std::printf("  L1D: %lluKB %u-way %uB lines, %llu-cycle hit, "
                "%llu-cycle miss, %u MSHRs\n",
                (unsigned long long)cfg.mem.l1dSize / 1024,
                cfg.mem.l1dAssoc, cfg.mem.l1dLineBytes,
                (unsigned long long)cfg.mem.l1dHitCycles,
                (unsigned long long)cfg.mem.l1dMissCycles,
                cfg.mem.mshrEntries);
    std::printf("  L2 : %lluKB %u-way %uB lines, +%llu-cycle miss\n",
                (unsigned long long)cfg.mem.l2Size / 1024,
                cfg.mem.l2Assoc, cfg.mem.l2LineBytes,
                (unsigned long long)cfg.mem.l2MissCycles);
    std::printf("  vector registers                : %u x %u x 64-bit\n",
                cfg.engine.numVregs, cfg.engine.vlen);
    std::printf("  TL  : %u-way x %u sets (conf %u)\n",
                cfg.engine.tlWays, cfg.engine.tlSets,
                cfg.engine.tlConfidence);
    std::printf("  VRMT: %u-way x %u sets\n\n", cfg.engine.vrmtWays,
                cfg.engine.vrmtSets);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parseArgs(argc, argv, /*simulating=*/false);
    bench::banner("Table 1 - processor microarchitectural parameters",
                  "4-way and 8-way machines; extra storage totals ~56KB");

    printConfig(4);
    printConfig(8);

    const StorageCost cost = storageCost(registryConfig(4));
    std::printf("additional storage (Section 4.1):\n");
    std::printf("  vector register file : %6llu bytes (paper: 4096)\n",
                (unsigned long long)cost.vectorRegisterFileBytes);
    std::printf("  VRMT                 : %6llu bytes (paper: 4608)\n",
                (unsigned long long)cost.vrmtBytes);
    std::printf("  Table of Loads       : %6llu bytes (paper: 49152)\n",
                (unsigned long long)cost.tlBytes);
    std::printf("  total                : %6llu bytes (~56KB)\n",
                (unsigned long long)cost.totalBytes());

    std::printf("\nworkload footprints at --scale %u, --footprint %s:\n",
                opt.plan.scale, footprintName(opt.plan.footprint));
    for (const WorkloadSpec &w : allWorkloads())
        std::printf("  %-9s %s\n", w.name.c_str(),
                    describeFootprint(w, opt.plan.scale,
                                      opt.plan.footprint)
                        .c_str());
    return 0;
}
