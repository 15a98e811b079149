/**
 * @file
 * Shared scaffolding for the benches that inspect programs without
 * simulating them (Figures 1 and 3, Table 1): the command line and the
 * workload loop. The figures that simulate are sdv_sweep's plan
 * reports (sweep/report.hh).
 */

#ifndef SDV_BENCH_HARNESS_HH
#define SDV_BENCH_HARNESS_HH

#include <functional>

#include "sweep/options.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace bench {

/**
 * Parse argv through the flags of the shared run-flag table
 * (sweep/options.hh) that pick the workloads (--scale, --footprint,
 * --quick); any other flag or a bad value exits 2 with usage.
 * Silences warn() from then on.
 */
sweep::RunOptions parseArgs(int argc, char **argv);

/** Run @p fn over the workloads @p opt selects (--quick subset,
 *  --scale, --footprint). */
void forEachWorkload(
    const sweep::PlanOptions &opt,
    const std::function<void(const Workload &, const Program &)> &fn);

} // namespace bench
} // namespace sdv

#endif // SDV_BENCH_HARNESS_HH
