/**
 * @file
 * sdv_sweep: parallel sweep driver. Regenerates any figure's
 * (workload x configuration) grid from the plan registry, as full runs
 * or estimated from interval-sample forks, prints the figure's report
 * (sweep/report.hh) and emits ordered JSON that
 * tools/compare_bench.py can diff against the checked-in baselines.
 * Figures 1 and 3 and Table 1 are plans too: they inspect the
 * workloads' programs and simulate nothing.
 *
 *   sdv_sweep --list
 *   sdv_sweep --plan table1 --scale 4 --footprint mem
 *   sdv_sweep --plan fig11 --jobs 4 --json fig11.json
 *   sdv_sweep --plan all --quick --jobs 2
 *   sdv_sweep --plan fig11 --scale 4 --footprint mem --samples 3
 *   sdv_sweep --fuzz-speculation --fuzz-samples 8 --jobs 4
 *   sdv_sweep --fuzz-replay fuzz_repro.json
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.hh"
#include "sweep/executor.hh"
#include "sweep/fuzz.hh"
#include "sweep/options.hh"
#include "sweep/plan.hh"
#include "sweep/report.hh"

using namespace sdv;

namespace {

/** Print one fuzz case outcome; @return true when it diverged. */
bool
reportFuzzOutcome(const sdv::sweep::FuzzOutcome &o)
{
    std::printf("  %-9s sample %u: %s", o.c.workload.c_str(),
                o.c.sample, o.diverged ? "DIVERGED" : "ok");
    if (o.diverged)
        std::printf(" (%s)", o.reason.c_str());
    std::printf("\n");
    return o.diverged;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string plan_name;
    sweep::RunOptions run;
    sweep::PlanOptions &popt = run.plan;
    sweep::ExecOptions &eopt = run.exec;
    bool metrics_summary = false;
    bool list = false;
    bool fuzz = false;
    unsigned fuzz_samples = 8;
    std::string fuzz_repro = "fuzz_repro.json";
    std::string fuzz_replay;

    // sdv_sweep's own modes around the shared run flags.
    const char *plans = "plan runs";
    const char *modes = "other modes (instead of --plan)";
    std::vector<sweep::Flag> flags = {
        sweep::stringFlag(plans, "--plan", "NAME",
                          "plan to run (see --list; 'all' runs every "
                          "figure)",
                          plan_name),
        sweep::switchFlag(plans, "--metrics-summary",
                          "print executor metrics (queue wait, run "
                          "time, utilization, snapshot traffic) and "
                          "record them in the JSON as \"exec_metrics\"",
                          [&] { metrics_summary = true; }),
    };
    for (sweep::Flag &f : sweep::runFlags(run))
        flags.push_back(std::move(f));
    flags.insert(
        flags.end(),
        {sweep::switchFlag(modes, "--list",
                           "list registered plans and workload "
                           "footprints, then exit",
                           [&] { list = true; }),
         sweep::switchFlag(modes, "--fuzz-speculation",
                           "run every workload x N fuzzed samples "
                           "against a no-vectorization oracle; exits "
                           "non-zero and writes a minimized repro on "
                           "any divergence",
                           [&] { fuzz = true; }),
         sweep::numberFlag(modes, "--fuzz-samples", "N",
                           "fuzzed samples per workload (default 8)", 1,
                           100'000,
                           [&](std::uint64_t v) {
                               fuzz_samples = unsigned(v);
                           }),
         sweep::stringFlag(modes, "--fuzz-repro", "PATH",
                           "where to write a divergence repro (default "
                           "fuzz_repro.json)",
                           fuzz_repro),
         sweep::stringFlag(modes, "--fuzz-replay", "F",
                           "re-run one case from a repro file",
                           fuzz_replay)});

    // The first mode switch on the command line picks the mode, and
    // only the flags that mode reads are parsed: any other flag, a
    // second mode's switch included, exits 2 instead of being ignored.
    // A plan run reads every flag but the other modes'.
    const std::vector<std::vector<std::string_view>> mode_flags = {
        {"--list", "--scale"},
        {"--fuzz-speculation", "--fuzz-samples", "--fuzz-repro",
         "--scale", "--footprint", "--quick", "--jobs", "--seed"},
        {"--fuzz-replay"},
    };
    const std::vector<std::string_view> *mode = nullptr;
    for (int i = 1; i < argc && !mode; ++i)
        for (const std::vector<std::string_view> &m : mode_flags)
            if (argv[i] == m.front())
                mode = &m;
    if (mode)
        flags = sweep::onlyFlags(std::move(flags), *mode);
    else
        std::erase_if(flags, [&](const sweep::Flag &f) {
            return std::string_view(f.section) == modes;
        });

    const std::string synopsis =
        std::string("usage: ") + argv[0] + " --plan NAME [options]\n" +
        "       " + argv[0] + " --list [--scale N]\n" + "       " +
        argv[0] + " --fuzz-speculation [options]\n" + "       " +
        argv[0] + " --fuzz-replay F";
    const std::string parse_error = sweep::parseFlags(argc, argv, flags);
    if (!parse_error.empty())
        sweep::usageExit(synopsis, flags, parse_error);

    if (!fuzz_replay.empty()) {
        sweep::FuzzCase c;
        std::string err;
        if (!sweep::loadFuzzRepro(fuzz_replay, c, &err))
            fatal("--fuzz-replay: ", err);
        std::printf("replaying %s: workload %s sample %u "
                    "(fuzz_seed %llu, quiesce %llu, vlen %u, "
                    "vregs %u, %up, conf %u%s)\n",
                    fuzz_replay.c_str(), c.workload.c_str(), c.sample,
                    static_cast<unsigned long long>(c.fuzzSeed),
                    static_cast<unsigned long long>(c.quiesceInterval),
                    c.vlen, c.numVregs, c.ports,
                    unsigned(c.tlConfidence),
                    c.eagerChain ? ", eager" : "");
        const sweep::FuzzOutcome o = sweep::runFuzzCase(c, eopt.maxCycles);
        reportFuzzOutcome(o);
        return o.diverged ? 1 : 0;
    }

    if (fuzz) {
        sweep::FuzzOptions fopt;
        fopt.samples = fuzz_samples;
        fopt.baseSeed = popt.baseSeed;
        fopt.jobs = eopt.jobs;
        fopt.scale = popt.scale;
        fopt.footprint = popt.footprint;
        fopt.quick = popt.quick;
        fopt.maxCycles = eopt.maxCycles;
        fopt.reproPath = fuzz_repro;

        std::printf("speculation fuzz campaign: %u samples per "
                    "workload, seed %llu, %u thread(s)\n",
                    fopt.samples,
                    static_cast<unsigned long long>(fopt.baseSeed),
                    fopt.jobs);
        const auto t0 = std::chrono::steady_clock::now();
        const sweep::FuzzReport rep = sweep::runFuzzCampaign(fopt);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        for (const sweep::FuzzOutcome &o : rep.outcomes)
            reportFuzzOutcome(o);
        std::printf("fuzzed %zu samples in %.2fs: %u divergence(s)\n",
                    rep.outcomes.size(), wall, rep.divergences);
        if (rep.divergences) {
            if (!rep.reproPath.empty())
                std::printf("minimized repro written to %s "
                            "(re-run with --fuzz-replay)\n",
                            rep.reproPath.c_str());
            return 1;
        }
        return 0;
    }

    if (list) {
        std::printf("registered sweep plans:\n");
        for (const sweep::PlanInfo &p : sweep::allPlans())
            std::printf("  %-10s %s\n", p.name.c_str(),
                        p.title.c_str());
        std::printf("\nworkload footprints at --scale %u "
                    "(initialized data):\n",
                    popt.scale);
        std::printf("  %-9s %-10s %s\n", "workload", "mode",
                    "footprint");
        for (const WorkloadSpec &w : allWorkloads())
            for (Footprint fp :
                 {Footprint::Base, Footprint::L2, Footprint::Mem})
                std::printf("  %-9s %-10s %s\n", w.name.c_str(),
                            footprintName(fp),
                            describeFootprint(w, popt.scale, fp)
                                .c_str());
        return 0;
    }
    if (plan_name.empty())
        sweep::usageExit(
            synopsis, flags,
            "nothing to run: give --plan NAME, --list or --fuzz-speculation");
    if (!sweep::havePlan(plan_name))
        fatal("unknown plan '", plan_name, "' (try --list)");
    sweep::checkRunOptions(run, plan_name);
    if (metrics_summary && sweep::planInspection(plan_name))
        fatal("plan ", plan_name, " inspects programs and runs no job: "
              "--metrics-summary has nothing to measure");

    const sweep::SweepPlan plan = sweep::buildPlan(plan_name, popt);
    std::printf("plan %s: %zu jobs, %u thread(s), scale %u, "
                "footprint %s",
                plan.name.c_str(), plan.jobs.size(), eopt.jobs,
                plan.scale, footprintName(plan.footprint));
    if (eopt.sample.enabled())
        std::printf(", %u samples x %llu insts", eopt.sample.samples,
                    static_cast<unsigned long long>(
                        eopt.sample.measureInsts));
    std::printf("\n");

    const auto t0 = std::chrono::steady_clock::now();
    sweep::ExecMetrics metrics;
    const std::vector<sweep::RunOutcome> outcomes = sweep::runPlan(
        plan, eopt, metrics_summary ? &metrics : nullptr);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::uint64_t insts = 0;
    unsigned unfinished = 0;
    unsigned forked = 0;
    for (const sweep::RunOutcome &o : outcomes) {
        insts += o.res.insts;
        if (!o.res.finished)
            ++unfinished;
        if (o.fromCheckpoint)
            ++forked;
        if (eopt.verify && !o.res.verified)
            fatal("verification failed: ", o.workload, "/",
                  o.configKey);
    }

    std::printf("ran %zu simulations (%.1f Minsts) in %.2fs "
                "(%.2f Minst/s)%s\n",
                outcomes.size(), double(insts) / 1e6, wall,
                wall > 0 ? double(insts) / 1e6 / wall : 0.0,
                eopt.verify ? ", all verified" : "");
    if (eopt.sample.enabled())
        std::printf("sampling: %u of %zu jobs estimated from "
                    "per-sample forks%s\n",
                    forked, outcomes.size(),
                    forked < outcomes.size() ? " (rest ran full)" : "");
    if (unfinished)
        std::printf("warning: %u job(s) hit the cycle budget\n",
                    unfinished);

    if (metrics_summary)
        std::fputs(metrics.summaryTable().c_str(), stdout);
    std::fputs(sweep::planReport(plan, outcomes).c_str(), stdout);

    if (!run.traceEventsPath.empty())
        sweep::writeTraceEvents(run.traceEventsPath, outcomes);

    if (!run.jsonPath.empty()) {
        if (!sweep::writeJsonDoc(run.jsonPath, plan.name, plan.scale,
                                 plan.footprint, eopt,
                                 sweep::resultsJson(outcomes), wall,
                                 metrics_summary ? metrics.toJson()
                                                 : std::string()))
            fatal("cannot write ", run.jsonPath);
        std::printf("results written to %s\n", run.jsonPath.c_str());
    }
    return 0;
}
