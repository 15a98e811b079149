#include "harness.hh"

#include <chrono>
#include <cstdio>

#include "common/log.hh"

namespace sdv {
namespace bench {

namespace {

/** Write @p outcomes as the --json record array of @p bench_name. Runs
 *  overlap under --jobs, so each is charged an equal share of the
 *  grid's @p wall clock: the sum (what compare_bench.py warns on)
 *  stays the true elapsed time. */
void
writeRecords(const std::string &path, const std::string &bench_name,
             const std::vector<sweep::RunOutcome> &outcomes, double wall)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open --json path ", path);
    const double share =
        outcomes.empty() ? 0.0 : wall / double(outcomes.size());
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const sweep::RunOutcome &o = outcomes[i];
        const double mips =
            share > 0.0 ? double(o.res.insts) / share / 1e6 : 0.0;
        std::fprintf(
            f,
            "  {\"bench\": \"%s\", \"workload\": \"%s\", "
            "\"config\": \"%s\", \"cycles\": %llu, \"insts\": %llu, "
            "\"ipc\": %.4f, \"wall_seconds\": %.6f, "
            "\"sim_mips\": %.3f, \"val_mismatches\": %llu",
            bench_name.c_str(), o.workload.c_str(), o.configKey.c_str(),
            static_cast<unsigned long long>(o.res.cycles),
            static_cast<unsigned long long>(o.res.insts), o.res.ipc,
            share, mips,
            static_cast<unsigned long long>(
                o.res.engine.validationValueMismatches));
        // Telemetry rides along only under --telemetry: the default
        // record layout stays byte-identical to the baselines.
        if (!o.telemetryJson.empty() && o.telemetryJson != "[]")
            std::fprintf(f, ", \"telemetry\": %s",
                         o.telemetryJson.c_str());
        std::fprintf(f, "}%s\n", i + 1 < outcomes.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

} // namespace

sweep::RunOptions
parseArgs(int argc, char **argv, bool simulating)
{
    sweep::RunOptions opt;
    const std::vector<sweep::Flag> flags =
        sweep::runFlags(opt, simulating);
    const std::string err = sweep::parseFlags(argc, argv, flags);
    if (!err.empty())
        sweep::usageExit(std::string("usage: ") + argv[0] + " [options]",
                         flags, err);
    sweep::checkRunOptions(opt);
    detail::setQuiet(true);
    return opt;
}

void
banner(const std::string &title, const std::string &paper_line)
{
    std::printf(
        "==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper: %s\n", paper_line.c_str());
    std::printf(
        "==============================================================\n\n");
}

SuiteTable::SuiteTable(std::vector<std::string> columns)
    : columns_(std::move(columns))
{
}

void
SuiteTable::add(const std::string &name, bool is_fp,
                const std::vector<double> &values)
{
    sdv_assert(values.size() == columns_.size(), "row/column mismatch");
    rows_.push_back({name, is_fp, values});
}

double
SuiteTable::intAvg(size_t col) const
{
    double sum = 0;
    unsigned n = 0;
    for (const Row &r : rows_)
        if (!r.isFp) {
            sum += r.values[col];
            ++n;
        }
    return n ? sum / n : 0.0;
}

double
SuiteTable::fpAvg(size_t col) const
{
    double sum = 0;
    unsigned n = 0;
    for (const Row &r : rows_)
        if (r.isFp) {
            sum += r.values[col];
            ++n;
        }
    return n ? sum / n : 0.0;
}

double
SuiteTable::totalAvg(size_t col) const
{
    double sum = 0;
    for (const Row &r : rows_)
        sum += r.values[col];
    return rows_.empty() ? 0.0 : sum / double(rows_.size());
}

std::string
SuiteTable::render(const std::string &title, bool percent,
                   int precision) const
{
    TextTable t(title);
    std::vector<std::string> header = {"benchmark"};
    for (const auto &c : columns_)
        header.push_back(c);
    t.setHeader(header);

    auto add_row = [&](const std::string &name,
                       const std::vector<double> &vals) {
        if (percent)
            t.addPercentRow(name, vals, precision);
        else
            t.addRow(name, vals, precision);
    };

    bool fp_started = false;
    for (const Row &r : rows_) {
        if (r.isFp && !fp_started) {
            // INT average row before the FP block, as in the figures.
            std::vector<double> avgs;
            for (size_t c = 0; c < columns_.size(); ++c)
                avgs.push_back(intAvg(c));
            add_row("INT", avgs);
            t.addSeparator();
            fp_started = true;
        }
        add_row(r.name, r.values);
    }
    std::vector<double> fp_avgs, total_avgs;
    for (size_t c = 0; c < columns_.size(); ++c) {
        fp_avgs.push_back(fpAvg(c));
        total_avgs.push_back(totalAvg(c));
    }
    if (fp_started)
        add_row("FP", fp_avgs);
    t.addSeparator();
    add_row("Spec95", total_avgs);
    return t.render();
}

std::vector<sweep::RunOutcome>
runGrid(const sweep::RunOptions &opt, const std::string &plan_name,
        const std::string &bench_name)
{
    const sweep::SweepPlan plan = sweep::buildPlan(plan_name, opt.plan);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<sweep::RunOutcome> outcomes =
        sweep::runPlan(plan, opt.exec);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    for (const sweep::RunOutcome &o : outcomes)
        if (opt.exec.verify && !o.res.verified)
            fatal("verification failed: ", o.workload, "/", o.configKey);

    if (!opt.traceEventsPath.empty())
        sweep::writeTraceEvents(opt.traceEventsPath, outcomes);
    if (!opt.jsonPath.empty())
        writeRecords(opt.jsonPath, bench_name, outcomes, wall);
    return outcomes;
}

SuiteTable
pivotTable(const std::vector<sweep::RunOutcome> &outcomes,
           const std::string &group,
           const std::function<double(const sweep::RunOutcome &)> &metric)
{
    std::vector<std::string> cols;
    for (const sweep::RunOutcome &o : outcomes) {
        if (!group.empty() && o.group != group)
            continue;
        if (o.workload != outcomes.front().workload)
            break;
        cols.push_back(o.column);
    }
    SuiteTable table(cols);

    std::string current;
    bool is_fp = false;
    std::vector<double> row;
    auto flush = [&]() {
        if (!current.empty())
            table.add(current, is_fp, row);
        row.clear();
    };
    for (const sweep::RunOutcome &o : outcomes) {
        if (!group.empty() && o.group != group)
            continue;
        if (o.workload != current) {
            flush();
            current = o.workload;
            is_fp = o.isFp;
        }
        row.push_back(metric(o));
    }
    flush();
    return table;
}

void
forEachWorkload(
    const sweep::PlanOptions &opt,
    const std::function<void(const Workload &, const Program &)> &fn)
{
    for (const Workload *w : selectWorkloads(allWorkloads(), opt.quick))
        fn(*w, w->instantiate(opt.scale, opt.footprint));
}

} // namespace bench
} // namespace sdv
