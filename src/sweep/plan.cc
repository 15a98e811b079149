#include "sweep/plan.hh"

#include "common/log.hh"
#include "common/random.hh"
#include "sweep/report.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace sweep {

namespace {

/** The Figure 11/12 machine matrix: both widths, 1/2/4 ports, three
 *  bus flavours. */
std::vector<GridConfig>
machineMatrix()
{
    std::vector<GridConfig> grid;
    for (unsigned width : {8u, 4u}) {
        const std::string group = std::to_string(width) + "w";
        for (unsigned ports : {1u, 2u, 4u}) {
            for (BusMode mode : {BusMode::ScalarBus, BusMode::WideBus,
                                 BusMode::WideBusSdv}) {
                grid.push_back({group, configLabel(ports, mode),
                                makeConfig(width, ports, mode)});
            }
        }
    }
    return grid;
}

/** Single-configuration figures: one @p Width-way machine with one
 *  wide port and SDV, one column. */
template <unsigned Width>
std::vector<GridConfig>
singleConfig()
{
    return {{"", std::to_string(Width) + "w-1pV",
             makeConfig(Width, 1, BusMode::WideBusSdv)}};
}

std::vector<GridConfig>
fig07Grid()
{
    GridConfig real{"", "real", makeConfig(4, 1, BusMode::WideBusSdv)};
    GridConfig ideal = real;
    ideal.column = "ideal";
    ideal.cfg.engine.blockOnScalarOperand = false;
    return {real, ideal};
}

std::vector<GridConfig>
ablationGrid()
{
    const CoreConfig base = makeConfig(4, 1, BusMode::WideBusSdv);
    std::vector<GridConfig> grid;
    grid.push_back({"", "base", base});
    for (unsigned regs : {8u, 16u, 32u, 64u}) {
        GridConfig g{"", "vregs" + std::to_string(regs), base};
        g.cfg.engine.numVregs = regs;
        grid.push_back(g);
    }
    for (unsigned vl : {2u, 8u}) {
        GridConfig g{"", "vlen" + std::to_string(vl), base};
        g.cfg.engine.vlen = vl;
        grid.push_back(g);
    }
    for (unsigned conf : {1u, 3u}) {
        GridConfig g{"", "conf" + std::to_string(conf), base};
        g.cfg.engine.tlConfidence = std::uint8_t(conf);
        grid.push_back(g);
    }
    GridConfig narrow{"", "scalarbus", base};
    narrow.cfg.widePorts = false;
    grid.push_back(narrow);
    return grid;
}

/** The grid of a plan that inspects instead of simulating. */
std::vector<GridConfig>
noGrid()
{
    return {};
}

struct PlanDef
{
    PlanInfo info;
    std::vector<GridConfig> (*grid)();
    /** Renders the plan's outcomes, which arrive in the order of
     *  grid; null for a plan that is no paper figure or that inspects. */
    FigureReport report;
    /** Included in --plan all. The adversarial "attack" plan is not:
     *  "all" regenerates the paper-figure baselines, and its job list
     *  (and JSON) must not change when robustness plans are added. The
     *  inspection plans are not either: they simulate nothing. */
    bool inAll = true;
    /** Set in place of report by a plan with no grid: renders the
     *  plan from its workloads alone. */
    Inspection inspect = nullptr;
};

/** The "attack" plan's machines: SDV geometry variants whose transient
 *  exposure across --quiesce-interval boundaries differs, plus a
 *  no-vectorization control with zero speculative state to leak. */
std::vector<GridConfig>
attackGrid()
{
    const CoreConfig base = makeConfig(4, 1, BusMode::WideBusSdv);
    std::vector<GridConfig> grid;
    grid.push_back({"", "novec", makeConfig(4, 1, BusMode::WideBus)});
    grid.push_back({"", "base", base});
    for (unsigned vl : {2u, 8u}) {
        GridConfig g{"", "vlen" + std::to_string(vl), base};
        g.cfg.engine.vlen = vl;
        grid.push_back(g);
    }
    GridConfig eager{"", "eager", base};
    eager.cfg.engine.eagerChainLoads = true;
    grid.push_back(eager);
    return grid;
}

/** The four machines behind the paper's headline prose claims. The
 *  columns carry the width ("4w-1pV") because the machines differ in
 *  it; they are the config keys of the headline JSON records
 *  (BENCH_headline.json). */
std::vector<GridConfig>
headlineGrid()
{
    return {
        {"", "4w-" + configLabel(1, BusMode::WideBusSdv),
         makeConfig(4, 1, BusMode::WideBusSdv)},
        {"", "4w-" + configLabel(1, BusMode::WideBus),
         makeConfig(4, 1, BusMode::WideBus)},
        {"", "4w-" + configLabel(4, BusMode::ScalarBus),
         makeConfig(4, 4, BusMode::ScalarBus)},
        {"", "8w-" + configLabel(4, BusMode::ScalarBus),
         makeConfig(8, 4, BusMode::ScalarBus)},
    };
}

const std::vector<PlanDef> &
planDefs()
{
    static const std::vector<PlanDef> defs = {
        {{"fig01", "stride distribution of the strided loads"}, noGrid,
         nullptr, /*inAll=*/false, fig01Report},
        {{"fig03", "vectorizable fraction of the instructions"}, noGrid,
         nullptr, /*inAll=*/false, fig03Report},
        {{"table1", "machine parameters, extra storage and workload "
                    "footprints"},
         noGrid, nullptr, /*inAll=*/false, table1Report},
        {{"fig07", "IPC: decode blocking on scalar operands "
                   "(real vs ideal)"},
         fig07Grid, fig07Report},
        {{"fig09", "vector instances with non-zero source offset"},
         singleConfig<8>, fig09Report},
        {{"fig10", "control-flow independence reuse"}, singleConfig<4>,
         fig10Report},
        {{"fig11", "IPC by port count, bus width and vectorization"},
         machineMatrix, fig11Report},
        {{"fig12", "L1D port occupancy across the machine matrix"},
         machineMatrix, fig12Report},
        {{"fig13", "useful words per wide-bus line read"}, singleConfig<4>,
         fig13Report},
        {{"fig14", "fraction of committed validations"}, singleConfig<8>,
         fig14Report},
        {{"fig15", "vector element fates at register release"},
         singleConfig<8>, fig15Report},
        {{"ablation", "sizing knobs: vregs / vlen / confidence / bus"},
         ablationGrid, ablationReport},
        {{"headline", "the four machines behind the headline claims"},
         headlineGrid, headlineReport},
        {{"attack", "timing-channel pair: transient exposure across "
                    "quiesce boundaries"},
         attackGrid, nullptr, /*inAll=*/false},
    };
    return defs;
}

/** @return the registry entry of plan @p name; fatal when there is
 *  none. */
const PlanDef &
planDef(const std::string &name)
{
    for (const PlanDef &d : planDefs())
        if (d.info.name == name)
            return d;
    fatal("no single-figure plan '", name, "'");
}

} // namespace

const std::vector<PlanInfo> &
allPlans()
{
    static const std::vector<PlanInfo> plans = [] {
        std::vector<PlanInfo> v;
        for (const PlanDef &d : planDefs())
            v.push_back(d.info);
        v.push_back({"all", "every figure grid back to back"});
        return v;
    }();
    return plans;
}

bool
havePlan(const std::string &name)
{
    for (const PlanInfo &p : allPlans())
        if (p.name == name)
            return true;
    return false;
}

std::vector<GridConfig>
figureGrid(const std::string &name)
{
    return planDef(name).grid();
}

FigureReport
figureReport(const std::string &name)
{
    return planDef(name).report;
}

Inspection
planInspection(const std::string &name)
{
    return name == "all" ? nullptr : planDef(name).inspect;
}

namespace {

/** Append @p name's grid jobs for every workload of @p plan. */
void
appendFigure(SweepPlan &plan, const std::string &name,
             const PlanOptions &opt)
{
    const std::vector<GridConfig> grid = figureGrid(name);
    for (const Workload *w : plan.workloads) {
        for (const GridConfig &g : grid) {
            SweepJob job;
            job.figure = name;
            job.workload = w->name;
            job.isFp = w->isFp;
            job.group = g.group;
            job.column = g.column;
            job.configKey = g.key();
            job.cfg = g.cfg;
            job.seed = deriveSeed(w->name, name + ":" + job.configKey,
                                  opt.baseSeed);
            plan.jobs.push_back(job);
        }
    }
}

} // namespace

SweepPlan
buildPlan(const std::string &name, const PlanOptions &opt)
{
    SweepPlan plan;
    plan.name = name;
    if (opt.scale == 0)
        fatal("plan '", name, "': invalid scale 0 (the scale is a "
              "dynamic-length multiplier and must be >= 1)");
    plan.scale = opt.scale;
    plan.footprint = opt.footprint;
    // The attack plan runs the timing-channel pair, not the figure
    // suite (which stays fixed at the paper's 12 workloads).
    plan.workloads = selectWorkloads(
        name == "attack" ? attackWorkloads() : allWorkloads(), opt.quick);

    if (name == "all") {
        plan.title = "every figure grid back to back";
        for (const PlanDef &d : planDefs())
            if (d.inAll)
                appendFigure(plan, d.info.name, opt);
        return plan;
    }

    for (const PlanInfo &p : allPlans()) {
        if (p.name == name) {
            plan.title = p.title;
            appendFigure(plan, name, opt);
            return plan;
        }
    }
    fatal("unknown sweep plan '", name, "' (see sdv_sweep --list)");
}

} // namespace sweep
} // namespace sdv
