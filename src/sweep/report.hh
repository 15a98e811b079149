/**
 * @file
 * The paper's figures and tables as text: one report per plan. A
 * figure that simulates is rendered from its plan's outcomes in the
 * grid order plan.cc defines, so a figure's layout is known in this
 * module only; Figures 1 and 3 and Table 1 inspect their plan's
 * programs instead. sdv_sweep prints planReport() after its run
 * summary. Reports return their text and print nothing.
 */

#ifndef SDV_SWEEP_REPORT_HH
#define SDV_SWEEP_REPORT_HH

#include <optional>
#include <string>
#include <vector>

#include "sweep/executor.hh"

namespace sdv {
namespace sweep {

/** @return the figure banner: @p title and @p paper_line between two
 *  rules, then a blank line. */
std::string banner(const std::string &title, const std::string &paper_line);

/** Per-benchmark metric collection with INT / FP / total averages. */
class SuiteTable
{
  public:
    explicit SuiteTable(std::vector<std::string> columns);

    /** Add one benchmark row. */
    void add(const std::string &name, bool is_fp,
             const std::vector<double> &values);

    /** Render with INT / FP / Spec95 average rows appended, as
     *  percentages of @p precision decimals when @p percent. */
    std::string render(const std::string &title, bool percent = false,
                       int precision = 2) const;

  private:
    struct Row
    {
        std::string name;
        bool isFp;
        std::vector<double> values;
    };

    /** @return each column's mean over the FP rows (@p fp true), the
     *  INT rows (false) or every row (nullopt); 0 when there are none. */
    std::vector<double> averages(std::optional<bool> fp) const;

    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

/** @name Figure reports
 * Each renders the outcomes of its plan, in plan order (workload-major,
 * grid order within). The plan registry (plan.cc) holds each beside
 * its grid.
 * @{ */
std::string fig07Report(const std::vector<RunOutcome> &outcomes);
std::string fig09Report(const std::vector<RunOutcome> &outcomes);
std::string fig10Report(const std::vector<RunOutcome> &outcomes);
std::string fig11Report(const std::vector<RunOutcome> &outcomes);
std::string fig12Report(const std::vector<RunOutcome> &outcomes);
std::string fig13Report(const std::vector<RunOutcome> &outcomes);
std::string fig14Report(const std::vector<RunOutcome> &outcomes);
std::string fig15Report(const std::vector<RunOutcome> &outcomes);
std::string ablationReport(const std::vector<RunOutcome> &outcomes);
std::string headlineReport(const std::vector<RunOutcome> &outcomes);
/** @} */

/** @name Inspection reports
 * Each inspects the programs of its plan's workloads at the plan's
 * scale and footprint, without simulating them; the plan has no jobs.
 * @{ */
/** Figure 1: the stride distribution of each suite (profileStrides). */
std::string fig01Report(const SweepPlan &plan);
/** Figure 3: the vectorizable fraction (analyzeVectorizability). */
std::string fig03Report(const SweepPlan &plan);
/** Table 1: the Figure 11 grid's 1pV machines, their Section 4.1
 *  storage cost and the footprints of the plan's workloads. */
std::string table1Report(const SweepPlan &plan);
/** @} */

/**
 * @return the report of @p plan: its inspection when it has one,
 * otherwise each run of @p outcomes of one figure (RunOutcome::figure)
 * rendered by that plan's report, in plan order. A plan without a
 * report ("attack") adds nothing.
 */
std::string planReport(const SweepPlan &plan,
                       const std::vector<RunOutcome> &outcomes);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_REPORT_HH
