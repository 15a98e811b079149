#include "sweep/report.hh"

#include "common/log.hh"
#include "common/table.hh"
#include "common/text_file.hh"
#include "sim/stride_profiler.hh"
#include "sim/vect_analyzer.hh"
#include "sweep/plan.hh"

namespace sdv {
namespace sweep {

std::string
banner(const std::string &title, const std::string &paper_line)
{
    const std::string rule =
        "==============================================================\n";
    return rule + title + "\npaper: " + paper_line + "\n" + rule + "\n";
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

std::vector<double>
SuiteTable::averages(std::optional<bool> fp) const
{
    std::vector<double> avgs;
    for (size_t c = 0; c < columns_.size(); ++c) {
        double sum = 0;
        unsigned n = 0;
        for (const Row &r : rows_)
            if (!fp || r.isFp == *fp) {
                sum += r.values[c];
                ++n;
            }
        avgs.push_back(n ? sum / n : 0.0);
    }
    return avgs;
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
            add_row("INT", averages(false));
            t.addSeparator();
            fp_started = true;
        }
        add_row(r.name, r.values);
    }
    if (fp_started)
        add_row("FP", averages(true));
    t.addSeparator();
    add_row("Spec95", averages(std::nullopt));
    return t.render();
}

namespace {

using Metric = double (*)(const RunOutcome &);

/** The Figure 11/12 layout: per width section ("8w", then "4w"), one
 *  row per workload and one column per configuration of the section,
 *  cells via @p metric, titled "<what>, N-way processor". */
std::string
byWidth(const std::vector<RunOutcome> &outcomes, const std::string &what,
        Metric metric, bool percent = false, int precision = 2)
{
    std::string out;
    for (const std::string group : {"8w", "4w"}) {
        std::vector<const RunOutcome *> cells;
        for (const RunOutcome &o : outcomes)
            if (o.group == group)
                cells.push_back(&o);
        sdv_assert(!cells.empty(), "no ", group, " section");
        std::vector<std::string> cols;
        for (const RunOutcome *o : cells)
            if (o->workload == cells.front()->workload)
                cols.push_back(o->column);
        SuiteTable table(cols);
        for (size_t i = 0; i < cells.size(); i += cols.size()) {
            std::vector<double> row;
            for (size_t c = 0; c < cols.size(); ++c)
                row.push_back(metric(*cells[i + c]));
            table.add(cells[i]->workload, cells[i]->isFp, row);
        }
        out += table.render(what + ", " + group.substr(0, 1) +
                                "-way processor",
                            percent, precision) +
               "\n";
    }
    return out;
}

/** The single-configuration layout: one row per outcome, the cells
 *  @p row returns under @p columns. */
std::string
perWorkload(const std::vector<RunOutcome> &outcomes,
            std::vector<std::string> columns,
            std::vector<double> (*row)(const RunOutcome &),
            const std::string &title, bool percent = false,
            int precision = 2)
{
    SuiteTable table(std::move(columns));
    for (const RunOutcome &o : outcomes)
        table.add(o.workload, o.isFp, row(o));
    return table.render(title, percent, precision) + "\n";
}

/** Suite-average IPC of ablation column @p column. */
double
columnIpc(const std::vector<RunOutcome> &outcomes,
          const std::string &column)
{
    double sum = 0;
    unsigned n = 0;
    for (const RunOutcome &o : outcomes)
        if (o.column == column) {
            sum += o.res.ipc;
            ++n;
        }
    sdv_assert(n > 0, "unknown ablation column ", column);
    return sum / n;
}

} // namespace

std::string
fig07Report(const std::vector<RunOutcome> &outcomes)
{
    SuiteTable table({"real", "ideal", "loss"});
    // Per workload, "real" then "ideal".
    for (size_t i = 0; i + 1 < outcomes.size(); i += 2) {
        const RunOutcome &real = outcomes[i];
        const RunOutcome &ideal = outcomes[i + 1];
        const double loss =
            ideal.res.ipc > 0
                ? (ideal.res.ipc - real.res.ipc) / ideal.res.ipc
                : 0.0;
        table.add(real.workload, real.isFp,
                  {real.res.ipc, ideal.res.ipc, 100.0 * loss});
    }
    return banner("Figure 7 - IPC blocking vs not blocking mixed-operand "
                  "vector instructions",
                  "blocking on a not-ready scalar operand costs little "
                  "(real vs ideal bars nearly equal)") +
           table.render("IPC, 4-way, 1 wide port, 128 vregs "
                        "(loss column in %)") +
           "\n";
}

std::string
fig09Report(const std::vector<RunOutcome> &outcomes)
{
    return banner("Figure 9 - vector instructions with source offset != 0",
                  "the fraction of vector instances whose sources start "
                  "mid-register is low") +
           perWorkload(
               outcomes, {"offset!=0"},
               [](const RunOutcome &o) -> std::vector<double> {
                   const auto &d = o.res.datapath;
                   return {d.arithInstances == 0
                               ? 0.0
                               : double(d.instancesWithNonzeroSrcOffset) /
                                     double(d.arithInstances)};
               },
               "Vector arithmetic instances with a non-zero source "
               "offset, 8-way",
               /*percent=*/true, 1);
}

std::string
fig10Report(const std::vector<RunOutcome> &outcomes)
{
    return banner("Figure 10 - control-flow independence reuse",
                  "~17% of the 100 instructions after a mispredicted "
                  "branch are reused from vector registers (SpecInt)") +
           perWorkload(
               outcomes, {"reused", "window insts/total"},
               [](const RunOutcome &o) -> std::vector<double> {
                   const double window_share =
                       o.res.insts == 0
                           ? 0.0
                           : double(o.res.core.postMispredictWindowInsts) /
                                 double(o.res.insts);
                   return {o.res.controlIndependenceFraction(),
                           window_share};
               },
               "Post-mispredict window reuse, 4-way, 1 wide port",
               /*percent=*/true, 1) +
           "paper: 17% reuse for SpecInt; post-mispredict windows cover "
           "10.53% of SpecInt instructions\n";
}

std::string
fig11Report(const std::vector<RunOutcome> &outcomes)
{
    return banner("Figure 11 - IPC by port count, bus width and "
                  "dynamic vectorization",
                  "a 4-way processor with one wide bus + SDV beats the "
                  "same processor with 4 scalar buses by ~19%") +
           byWidth(outcomes, "IPC",
                   [](const RunOutcome &o) { return o.res.ipc; });
}

std::string
fig12Report(const std::vector<RunOutcome> &outcomes)
{
    return banner("Figure 12 - L1D bus occupancy",
                  "wide buses and vectorization both cut occupancy; the "
                  "1-port configurations are the most contended") +
           byWidth(
               outcomes, "Port occupancy",
               [](const RunOutcome &o) {
                   return o.res.ports.occupancy(o.cfg.dcachePorts,
                                                o.res.core.cycles);
               },
               /*percent=*/true, 1);
}

std::string
fig13Report(const std::vector<RunOutcome> &outcomes)
{
    return banner("Figure 13 - useful words per wide-bus line read",
                  "most accesses serve multiple words; unused "
                  "(speculative) accesses are small except compress") +
           perWorkload(
               outcomes, {"1pos", "2pos", "3pos", "4pos", "unused"},
               [](const RunOutcome &o) -> std::vector<double> {
                   const auto &w = o.res.wideBus;
                   return {w.fraction(1), w.fraction(2), w.fraction(3),
                           w.fraction(4), w.unusedFraction()};
               },
               "Read line accesses by useful word count, 4-way, 1 wide "
               "port",
               /*percent=*/true, 1);
}

std::string
fig14Report(const std::vector<RunOutcome> &outcomes)
{
    return banner("Figure 14 - percentage of validation instructions",
                  "28% of SpecInt and 23% of SpecFP instructions "
                  "validate a vector element instead of executing") +
           perWorkload(
               outcomes, {"validations", "load vals", "arith vals"},
               [](const RunOutcome &o) -> std::vector<double> {
                   const double total =
                       double(o.res.insts ? o.res.insts : 1);
                   const auto &c = o.res.core;
                   return {o.res.validationFraction(),
                           double(c.committedLoadValidations) / total,
                           double(c.committedValidations -
                                  c.committedLoadValidations) /
                               total};
               },
               "Committed validations / committed instructions, 8-way, "
               "1 wide port",
               /*percent=*/true, 1);
}

std::string
fig15Report(const std::vector<RunOutcome> &outcomes)
{
    return banner("Figure 15 - vector element fates",
                  "avg per released register: ~1.75 computed+used, "
                  "~2.0 computed-not-used, ~0.25 not computed") +
           perWorkload(
               outcomes, {"comp. used", "comp. not used", "not comp."},
               [](const RunOutcome &o) -> std::vector<double> {
                   const auto &f = o.res.fates;
                   return {f.avgComputedUsed(), f.avgComputedNotUsed(),
                           f.avgNotComputed()};
               },
               "Average elements per released vector register (of 4), "
               "8-way");
}

std::string
ablationReport(const std::vector<RunOutcome> &outcomes)
{
    std::string out = banner("Ablation - vector registers, vector length, "
                             "TL confidence",
                             "the paper fixes 128 x 4 x 64-bit and "
                             "confidence 2; these sweeps show the "
                             "sensitivity of that choice");
    const double base = columnIpc(outcomes, "base");
    appendf(out, "baseline (128 regs, VL 4, conf 2): IPC %.3f\n\n", base);

    out += "vector register count:\n";
    for (unsigned regs : {8u, 16u, 32u, 64u, 128u})
        appendf(out, "  %3u regs : IPC %.3f\n", regs,
                regs == 128u
                    ? base
                    : columnIpc(outcomes, "vregs" + std::to_string(regs)));

    out += "\nvector length (elements per register):\n";
    for (unsigned vl : {2u, 4u, 8u})
        appendf(out, "  VL %u    : IPC %.3f\n", vl,
                vl == 4u ? base
                         : columnIpc(outcomes, "vlen" + std::to_string(vl)));

    out += "\nTable of Loads confidence threshold:\n";
    for (unsigned conf : {1u, 2u, 3u})
        appendf(out, "  conf %u  : IPC %.3f\n", conf,
                conf == 2u
                    ? base
                    : columnIpc(outcomes, "conf" + std::to_string(conf)));

    out += "\nwide-bus ride-along disabled (scalar ports + SDV):\n";
    appendf(out,
            "  1 scalar port + SDV : IPC %.3f (vs %.3f with the wide "
            "bus)\n",
            columnIpc(outcomes, "scalarbus"), base);
    return out;
}

std::string
headlineReport(const std::vector<RunOutcome> &outcomes)
{
    // Per suite (index isFp): cycles and memory requests of the 4-way
    // machines, summed over workloads, and the mean store conflict rate.
    double cycles_v[2] = {}, cycles_im[2] = {}, cycles_4p[2] = {};
    double req_v[2] = {}, req_im[2] = {}, conf[2] = {};
    unsigned n[2] = {};
    double cycles_8w4p = 0, cycles_v_total = 0;

    // Per workload, in grid order: V, IM, 4p, 8w4p.
    for (std::size_t i = 0; i + 3 < outcomes.size(); i += 4) {
        const SimResult &v = outcomes[i].res;
        const SimResult &im = outcomes[i + 1].res;
        const int fp = outcomes[i].isFp;
        cycles_v[fp] += double(v.cycles);
        cycles_im[fp] += double(im.cycles);
        cycles_4p[fp] += double(outcomes[i + 2].res.cycles);
        req_v[fp] += double(v.memoryRequests());
        req_im[fp] += double(im.memoryRequests());
        conf[fp] += v.engine.storesChecked
                        ? double(v.engine.storeRangeConflicts) /
                              double(v.engine.storesChecked)
                        : 0.0;
        ++n[fp];
        cycles_8w4p += double(outcomes[i + 3].res.cycles);
        cycles_v_total += double(v.cycles);
    }

    std::string out = banner("Headline claims (abstract, Sections 1, 3.6 "
                             "and 6)",
                             "speedups, memory-request reductions, store "
                             "conflict rates");
    out += "4-way, 1 wide port + SDV  vs  4-way, 4 scalar ports:\n";
    appendf(out, "  speedup: %+.1f%%   (paper: +19%%)\n\n",
            100.0 * ((cycles_4p[0] + cycles_4p[1]) /
                         (cycles_v[0] + cycles_v[1]) -
                     1.0));

    out += "memory requests, 1pV vs 1pIM (4-way):\n";
    appendf(out, "  SpecInt: %+.1f%%   (paper: -15%%)\n",
            100.0 * (req_v[0] / req_im[0] - 1.0));
    appendf(out, "  SpecFP:  %+.1f%%   (paper: -20%%)\n\n",
            100.0 * (req_v[1] / req_im[1] - 1.0));

    out += "IPC uplift of SDV on a 4-way, 1 wide port machine:\n";
    appendf(out, "  SpecInt: %+.1f%%   (paper: +21.2%%)\n",
            100.0 * (cycles_im[0] / cycles_v[0] - 1.0));
    appendf(out, "  SpecFP:  %+.1f%%   (paper: +8.1%%)\n\n",
            100.0 * (cycles_im[1] / cycles_v[1] - 1.0));

    out += "4-way 1 wide port + SDV  vs  8-way 4 scalar ports:\n";
    appendf(out, "  speedup: %+.1f%%   (paper: +3%%)\n\n",
            100.0 * (cycles_8w4p / cycles_v_total - 1.0));

    out += "stores hitting a vector register range (Section 3.6):\n";
    appendf(out, "  SpecInt: %5.2f%%   (paper: 4.5%%)\n",
            100.0 * conf[0] / (n[0] ? n[0] : 1));
    appendf(out, "  SpecFP:  %5.2f%%   (paper: 2.5%%)\n",
            100.0 * conf[1] / (n[1] ? n[1] : 1));
    return out;
}

std::string
fig01Report(const SweepPlan &plan)
{
    // Benchmarks are weighted equally (each SPEC program contributed
    // the same 100M-instruction sample in the paper).
    double int_frac[11] = {}, fp_frac[11] = {};
    double int_lt4 = 0, fp_lt4 = 0;
    unsigned n_int = 0, n_fp = 0;
    for (const Workload *w : plan.workloads) {
        const StrideProfile prof =
            profileStrides(w->instantiate(plan.scale, plan.footprint));
        double *frac = w->isFp ? fp_frac : int_frac;
        for (unsigned s = 0; s < 10; ++s)
            frac[s] += prof.strideHist.fraction(s);
        frac[10] += prof.strideHist.overflowFraction();
        (w->isFp ? fp_lt4 : int_lt4) += prof.stridedBelow4Fraction();
        (w->isFp ? n_fp : n_int) += 1;
    }
    for (unsigned s = 0; s <= 10; ++s) {
        int_frac[s] /= n_int ? n_int : 1;
        fp_frac[s] /= n_fp ? n_fp : 1;
    }

    TextTable t("Stride distribution (percentage of dynamic stride "
                "samples, benchmarks equally weighted)");
    t.setHeader({"stride (elements)", "SpecInt", "SpecFP"});
    for (unsigned s = 0; s < 10; ++s)
        t.addRow({std::to_string(s), TextTable::percent(int_frac[s]),
                  TextTable::percent(fp_frac[s])});
    t.addSeparator();
    t.addRow({">9 / irregular", TextTable::percent(int_frac[10]),
              TextTable::percent(fp_frac[10])});

    std::string out = banner("Figure 1 - stride distribution",
                             "stride 0 most frequent for both suites; "
                             "<4-element strides are 97.9% (INT) / "
                             "81.3% (FP) of strided loads") +
                      t.render() + "\n";
    out += "strided loads with |stride| < 4 elements:\n";
    appendf(out, "  SpecInt: %5.1f%%   (paper: 97.9%%)\n",
            100.0 * int_lt4 / (n_int ? n_int : 1));
    appendf(out, "  SpecFP:  %5.1f%%   (paper: 81.3%%)\n",
            100.0 * fp_lt4 / (n_fp ? n_fp : 1));
    return out;
}

std::string
fig03Report(const SweepPlan &plan)
{
    SuiteTable table({"vectorizable", "loads", "arith"});
    for (const Workload *w : plan.workloads) {
        const VectAnalysis a = analyzeVectorizability(
            w->instantiate(plan.scale, plan.footprint));
        table.add(w->name, w->isFp,
                  {a.fraction(),
                   double(a.vectorizableLoads) / double(a.insts),
                   double(a.vectorizableArith) / double(a.insts)});
    }
    return banner("Figure 3 - percentage of vectorizable instructions",
                  "unbounded resources: 47% of SpecInt95, 51% of "
                  "SpecFP95 instructions can be vectorized") +
           table.render("Vectorizable fraction of dynamic instructions",
                        /*percent=*/true, 1) +
           "\npaper reference: INTEGER ~47%, FP ~51%\n";
}

namespace {

/** @return the Figure 11 grid's 1pV machine of @p width, so Table 1
 *  can never drift from what the sweeps simulate. */
CoreConfig
registryConfig(unsigned width)
{
    const std::string group = std::to_string(width) + "w";
    for (const GridConfig &g : figureGrid("fig11"))
        if (g.group == group && g.column == "1pV")
            return g.cfg;
    panic("fig11 grid lost its ", group, "/1pV column");
}

/** Append the Table 1 parameters of the @p width-way machine. */
void
appendConfig(std::string &out, unsigned width)
{
    const CoreConfig cfg = registryConfig(width);
    appendf(out, "%u-way processor\n", width);
    appendf(out, "  fetch/decode/issue/commit width : %u/%u/%u/%u\n",
            cfg.fetchWidth, cfg.decodeWidth, cfg.issueWidth,
            cfg.commitWidth);
    appendf(out, "  instruction window (ROB)        : %u\n",
            cfg.robEntries);
    appendf(out, "  load/store queue                : %u\n",
            cfg.lsqEntries);
    appendf(out,
            "  scalar FUs (int/intMulDiv/fpAdd/fpMulDiv): %u/%u/%u/%u\n",
            cfg.fu.intAlu, cfg.fu.intMulDiv, cfg.fu.fpAdd,
            cfg.fu.fpMulDiv);
    appendf(out,
            "  vector FUs (int/intMulDiv/fpAdd/fpMulDiv): %u/%u/%u/%u\n",
            cfg.engine.fu.intAlu, cfg.engine.fu.intMulDiv,
            cfg.engine.fu.fpAdd, cfg.engine.fu.fpMulDiv);
    appendf(out, "  branch predictor                : gshare, %u entries\n",
            cfg.gshareEntries);
    appendf(out, "  L1I: %lluKB %u-way %uB lines, %llu-cycle hit\n",
            (unsigned long long)cfg.mem.l1iSize / 1024, cfg.mem.l1iAssoc,
            cfg.mem.l1iLineBytes,
            (unsigned long long)cfg.mem.l1iHitCycles);
    appendf(out,
            "  L1D: %lluKB %u-way %uB lines, %llu-cycle hit, "
            "%llu-cycle miss, %u MSHRs\n",
            (unsigned long long)cfg.mem.l1dSize / 1024, cfg.mem.l1dAssoc,
            cfg.mem.l1dLineBytes,
            (unsigned long long)cfg.mem.l1dHitCycles,
            (unsigned long long)cfg.mem.l1dMissCycles,
            cfg.mem.mshrEntries);
    appendf(out, "  L2 : %lluKB %u-way %uB lines, +%llu-cycle miss\n",
            (unsigned long long)cfg.mem.l2Size / 1024, cfg.mem.l2Assoc,
            cfg.mem.l2LineBytes,
            (unsigned long long)cfg.mem.l2MissCycles);
    appendf(out, "  vector registers                : %u x %u x 64-bit\n",
            cfg.engine.numVregs, cfg.engine.vlen);
    appendf(out, "  TL  : %u-way x %u sets (conf %u)\n", cfg.engine.tlWays,
            cfg.engine.tlSets, cfg.engine.tlConfidence);
    appendf(out, "  VRMT: %u-way x %u sets\n\n", cfg.engine.vrmtWays,
            cfg.engine.vrmtSets);
}

} // namespace

std::string
table1Report(const SweepPlan &plan)
{
    std::string out = banner("Table 1 - processor microarchitectural "
                             "parameters",
                             "4-way and 8-way machines; extra storage "
                             "totals ~56KB");
    appendConfig(out, 4);
    appendConfig(out, 8);

    const StorageCost cost = storageCost(registryConfig(4));
    out += "additional storage (Section 4.1):\n";
    appendf(out, "  vector register file : %6llu bytes (paper: 4096)\n",
            (unsigned long long)cost.vectorRegisterFileBytes);
    appendf(out, "  VRMT                 : %6llu bytes (paper: 4608)\n",
            (unsigned long long)cost.vrmtBytes);
    appendf(out, "  Table of Loads       : %6llu bytes (paper: 49152)\n",
            (unsigned long long)cost.tlBytes);
    appendf(out, "  total                : %6llu bytes (~56KB)\n",
            (unsigned long long)cost.totalBytes());

    appendf(out, "\nworkload footprints at --scale %u, --footprint %s:\n",
            plan.scale, footprintName(plan.footprint));
    for (const Workload *w : plan.workloads)
        appendf(out, "  %-9s %s\n", w->name.c_str(),
                describeFootprint(*w, plan.scale, plan.footprint).c_str());
    return out;
}

std::string
planReport(const SweepPlan &plan, const std::vector<RunOutcome> &outcomes)
{
    if (const Inspection inspect = planInspection(plan.name))
        return inspect(plan);
    std::string out;
    for (auto first = outcomes.begin(); first != outcomes.end();) {
        auto last = first;
        while (last != outcomes.end() && last->figure == first->figure)
            ++last;
        if (const FigureReport report = figureReport(first->figure))
            out += report(std::vector<RunOutcome>(first, last));
        first = last;
    }
    return out;
}

} // namespace sweep
} // namespace sdv
