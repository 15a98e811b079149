/**
 * @file
 * Declarative sweep plans: the (workload x configuration) grid behind
 * every figure and table of the paper, expressed once in a registry
 * instead of re-enumerated by each hand-rolled bench main. A SweepPlan
 * is a flat, ordered job list the executor runs — serially or on a
 * thread pool — with bit-identical results either way. The plans that
 * inspect programs instead of simulating them (Figures 1 and 3, Table
 * 1) have no grid and build no jobs.
 */

#ifndef SDV_SWEEP_PLAN_HH
#define SDV_SWEEP_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace sweep {

/** One configuration column of a figure's grid. */
struct GridConfig
{
    /** Table section the column belongs to ("8w", "4w"; empty when the
     *  figure has a single section). */
    std::string group;

    /** Bare column label as rendered in the figure ("1pV", "real"). */
    std::string column;

    CoreConfig cfg;

    /** @return the unique config key used in JSON output
     *  ("8w/1pV" or just "real" for single-section figures). */
    std::string
    key() const
    {
        return group.empty() ? column : group + "/" + column;
    }
};

/** One simulation of a sweep. */
struct SweepJob
{
    std::string figure;      ///< originating figure ("fig11")
    std::string workload;    ///< workload name ("go")
    bool isFp = false;       ///< SpecFP member (table sectioning)
    std::string group;       ///< grid section ("8w"; may be empty)
    std::string column;      ///< bare config column label ("1pV")
    std::string configKey;   ///< unique config key ("8w/1pV")
    CoreConfig cfg;          ///< full machine configuration
    /** Per-job RNG stream seed, derived from (workload, configKey,
     *  base seed) — never from scheduling order. */
    std::uint64_t seed = 0;
};

/** An ordered list of jobs (workload-major, grid order within). */
struct SweepPlan
{
    std::string name;   ///< plan/figure name ("fig11")
    std::string title;  ///< one-line description
    unsigned scale = 1; ///< workload scale the jobs were built for
    Footprint footprint = Footprint::Base; ///< working-set regime
    /** The plan's suite as --quick filters it (selectWorkloads), in
     *  suite order: the workloads its jobs run or its inspection reads. */
    std::vector<const Workload *> workloads;
    std::vector<SweepJob> jobs;
};

/** Options applied while instantiating a plan. */
struct PlanOptions
{
    unsigned scale = 1;        ///< workload scale factor (>= 1)
    Footprint footprint = Footprint::Base; ///< working-set regime
    bool quick = false;        ///< first two INT + first FP only
    std::uint64_t baseSeed = 0; ///< base of the per-job seed derivation

    bool operator==(const PlanOptions &) const = default;
};

/** Registry entry: a named plan and what it regenerates. */
struct PlanInfo
{
    std::string name;
    std::string title;
};

/** @return every registered plan (figures, ablations and "all"). */
const std::vector<PlanInfo> &allPlans();

/** @return true when @p name names a registered plan. */
bool havePlan(const std::string &name);

/**
 * @return the configuration grid of figure/plan @p name (without the
 * workload dimension). Fatal on unknown names; "all" has no single
 * grid and is also fatal here.
 */
std::vector<GridConfig> figureGrid(const std::string &name);

struct RunOutcome;

/** A figure's text report (sweep/report.hh): renders the outcomes of
 *  its plan, in plan order. */
using FigureReport = std::string (*)(const std::vector<RunOutcome> &);

/** @return the report of plan @p name, null for a plan that is no
 *  paper figure ("attack") or that inspects. Fatal on unknown names,
 *  like figureGrid. */
FigureReport figureReport(const std::string &name);

/** A report that inspects the programs of its plan's workloads at the
 *  plan's scale and footprint instead of simulating them
 *  (sweep/report.hh). */
using Inspection = std::string (*)(const SweepPlan &);

/** @return the inspection of plan @p name ("fig01", "fig03",
 *  "table1"), null for a plan that simulates, "all" included. Fatal on
 *  unknown names. */
Inspection planInspection(const std::string &name);

/**
 * Instantiate plan @p name over the (quick-filtered) workload suite.
 * Job order is workload-major with the figure's grid order within
 * each workload — the exact order the legacy bench mains used.
 */
SweepPlan buildPlan(const std::string &name, const PlanOptions &opt);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_PLAN_HH
