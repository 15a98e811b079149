/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries: the
 * command line (the run-flag table every sweep front end shares),
 * grid runs through the sweep executor, suite averaging and
 * paper-style table output.
 */

#ifndef SDV_BENCH_HARNESS_HH
#define SDV_BENCH_HARNESS_HH

#include <functional>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sweep/executor.hh"
#include "sweep/options.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace bench {

/**
 * Parse argv through the shared run-flag table (sweep/options.hh) and
 * run its cross-flag checks; a bad flag or value exits 2 with usage.
 * Silences warn() from then on.
 * @param simulating false for a bench that runs no simulation: it
 *        accepts only the flags that pick its workloads (--scale,
 *        --footprint, --quick)
 */
sweep::RunOptions parseArgs(int argc, char **argv,
                            bool simulating = true);

/** Print the figure banner. */
void banner(const std::string &title, const std::string &paper_line);

/** Per-benchmark metric collection with INT / FP / total averages. */
struct SuiteTable
{
    explicit SuiteTable(std::vector<std::string> columns);

    /** Add one benchmark row. */
    void add(const std::string &name, bool is_fp,
             const std::vector<double> &values);

    /**
     * Render with INT / FP / Spec95 average rows appended, formatting
     * cells via @p fmt (defaults to 2-decimal numbers).
     */
    std::string render(const std::string &title, bool percent = false,
                       int precision = 2) const;

    /** @return the average over INT rows for column @p col. */
    double intAvg(size_t col) const;

    /** @return the average over FP rows for column @p col. */
    double fpAvg(size_t col) const;

    /** @return the average over all rows for column @p col. */
    double totalAvg(size_t col) const;

  private:
    std::vector<std::string> columns_;
    struct Row
    {
        std::string name;
        bool isFp;
        std::vector<double> values;
    };
    std::vector<Row> rows_;
};

/** Run @p fn over the workloads @p opt selects (--quick subset,
 *  --scale, --footprint). */
void forEachWorkload(
    const sweep::PlanOptions &opt,
    const std::function<void(const Workload &, const Program &)> &fn);

/**
 * Run the registry plan for figure @p plan_name through the sweep
 * executor with this bench's options, then write the files the flags
 * asked for: the --trace-events file (one source per traced run, plan
 * order) and the --json records of bench @p bench_name. Schema per
 * record: {bench, workload, config, cycles, insts, ipc, wall_seconds,
 * sim_mips, val_mismatches} plus a "telemetry" array under
 * --telemetry. Outcomes come back in plan order (workload-major, grid
 * order within). Fatal when --verify finds a run that does not verify.
 */
std::vector<sweep::RunOutcome> runGrid(const sweep::RunOptions &opt,
                                       const std::string &plan_name,
                                       const std::string &bench_name);

/**
 * Pivot @p outcomes into a SuiteTable: one row per workload, one
 * column per grid config whose group equals @p group (all configs
 * when empty), cell values via @p metric.
 */
SuiteTable pivotTable(
    const std::vector<sweep::RunOutcome> &outcomes,
    const std::string &group,
    const std::function<double(const sweep::RunOutcome &)> &metric);

} // namespace bench
} // namespace sdv

#endif // SDV_BENCH_HARNESS_HH
