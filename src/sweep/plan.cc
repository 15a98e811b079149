#include "sweep/plan.hh"

#include "common/log.hh"
#include "common/random.hh"
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

/** Single-configuration figures: one machine, one column. */
std::vector<GridConfig>
singleConfig(unsigned width, const std::string &label)
{
    return {{"", std::to_string(width) + "w-" + label,
             makeConfig(width, 1, BusMode::WideBusSdv)}};
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

struct PlanDef
{
    PlanInfo info;
    std::vector<GridConfig> (*grid)();
    /** Included in --plan all. The adversarial "attack" plan is not:
     *  "all" regenerates the paper-figure baselines, and its job list
     *  (and JSON) must not change when robustness plans are added. */
    bool inAll = true;
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
 *  columns keep the legacy bench labels ("4w-1pV") so delegating
 *  bench_headline_claims to this grid leaves its JSON unchanged. */
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

std::vector<GridConfig>
fig09Grid()
{
    return singleConfig(8, "1pV");
}

std::vector<GridConfig>
fig10Grid()
{
    return singleConfig(4, "1pV");
}

std::vector<GridConfig>
fig13Grid()
{
    return singleConfig(4, "1pV");
}

std::vector<GridConfig>
fig14Grid()
{
    return singleConfig(8, "1pV");
}

std::vector<GridConfig>
fig15Grid()
{
    return singleConfig(8, "1pV");
}

const std::vector<PlanDef> &
planDefs()
{
    static const std::vector<PlanDef> defs = {
        {{"fig07", "IPC: decode blocking on scalar operands "
                   "(real vs ideal)"},
         fig07Grid},
        {{"fig09", "vector instances with non-zero source offset"},
         fig09Grid},
        {{"fig10", "control-flow independence reuse"}, fig10Grid},
        {{"fig11", "IPC by port count, bus width and vectorization"},
         machineMatrix},
        {{"fig12", "L1D port occupancy across the machine matrix"},
         machineMatrix},
        {{"fig13", "useful words per wide-bus line read"}, fig13Grid},
        {{"fig14", "fraction of committed validations"}, fig14Grid},
        {{"fig15", "vector element fates at register release"},
         fig15Grid},
        {{"ablation", "sizing knobs: vregs / vlen / confidence / bus"},
         ablationGrid},
        {{"headline", "the four machines behind the headline claims"},
         headlineGrid},
        {{"attack", "timing-channel pair: transient exposure across "
                    "quiesce boundaries"},
         attackGrid, /*inAll=*/false},
    };
    return defs;
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
    for (const PlanDef &d : planDefs())
        if (d.info.name == name)
            return d.grid();
    fatal("no configuration grid for plan '", name, "'");
}

namespace {

/** Append @p name's grid jobs for every (quick-filtered) workload. */
void
appendFigure(SweepPlan &plan, const std::string &name,
             const PlanOptions &opt)
{
    const std::vector<GridConfig> grid = figureGrid(name);
    // The attack plan runs the timing-channel pair, not the figure
    // suite (which stays fixed at the paper's 12 workloads).
    const std::vector<Workload> &suite =
        name == "attack" ? attackWorkloads() : allWorkloads();
    for (const Workload *w : selectWorkloads(suite, opt.quick)) {
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
