/**
 * @file
 * sdv_sweep: parallel sweep driver. Regenerates any figure's
 * (workload x configuration) grid from the plan registry, optionally
 * forking every configuration from a warmed checkpoint, and emits
 * ordered JSON that tools/compare_bench.py can diff against the
 * checked-in baselines.
 *
 *   sdv_sweep --list
 *   sdv_sweep --plan fig11 --jobs 4 --json fig11.json
 *   sdv_sweep --plan fig11 --checkpoint --warmup 10000 --jobs 4
 *   sdv_sweep --plan all --quick --jobs 2
 *   sdv_sweep --plan fig11 --samples 3 --checkpoint-dir snaps
 *   sdv_sweep --fuzz-speculation --fuzz-samples 8 --jobs 4
 *   sdv_sweep --fuzz-replay fuzz_repro.json
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sweep/executor.hh"
#include "sweep/fuzz.hh"
#include "sweep/options.hh"
#include "sweep/plan.hh"

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
    if (o.c.fault.armed())
        std::printf(" [faults: %llu injected, %llu detected, "
                    "%llu demotions]",
                    static_cast<unsigned long long>(
                        o.elemFlips + o.vrmtFlips + o.tlFlips +
                        o.gmrbbFlips),
                    static_cast<unsigned long long>(o.faultsDetected),
                    static_cast<unsigned long long>(o.chainDemotions));
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
    bool fuzz_faults = true;
    std::string fuzz_repro = "fuzz_repro.json";
    std::string fuzz_replay;

    // sdv_sweep's own modes around the shared run flags.
    const char *plans = "plan runs";
    const char *fuzzing = "fuzzing (instead of --plan)";
    std::vector<sweep::Flag> flags = {
        sweep::stringFlag(plans, "--plan", "NAME",
                          "plan to run (see --list; 'all' runs every "
                          "figure)",
                          plan_name),
        sweep::switchFlag(plans, "--list",
                          "list registered plans and workload "
                          "footprints, then exit",
                          [&] { list = true; }),
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
        {sweep::switchFlag(fuzzing, "--fuzz-speculation",
                           "run every workload x N fuzzed samples "
                           "against a no-vectorization oracle; exits "
                           "non-zero and writes a minimized repro on "
                           "any divergence",
                           [&] { fuzz = true; }),
         sweep::numberFlag(fuzzing, "--fuzz-samples", "N",
                           "fuzzed samples per workload (default 8)", 1,
                           100'000,
                           [&](std::uint64_t v) {
                               fuzz_samples = unsigned(v);
                           }),
         sweep::switchFlag(fuzzing, "--fuzz-no-faults",
                           "fuzz without concurrent fault injection",
                           [&] { fuzz_faults = false; }),
         sweep::stringFlag(fuzzing, "--fuzz-repro", "PATH",
                           "where to write a divergence repro (default "
                           "fuzz_repro.json)",
                           fuzz_repro),
         sweep::stringFlag(fuzzing, "--fuzz-replay", "F",
                           "re-run one case from a repro file",
                           fuzz_replay)});

    const std::string synopsis =
        std::string("usage: ") + argv[0] + " --plan NAME [options]\n" +
        "       " + argv[0] + " --list\n" + "       " + argv[0] +
        " --fuzz-speculation [options]";
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
                    "vregs %u, %up, conf %u%s, faults: %s)\n",
                    fuzz_replay.c_str(), c.workload.c_str(), c.sample,
                    static_cast<unsigned long long>(c.fuzzSeed),
                    static_cast<unsigned long long>(c.quiesceInterval),
                    c.vlen, c.numVregs, c.ports,
                    unsigned(c.tlConfidence),
                    c.eagerChain ? ", eager" : "",
                    describeFaultPlan(c.fault).c_str());
        const sweep::FuzzOutcome o =
            sweep::runFuzzCase(c, eopt.eventSkip, eopt.maxCycles);
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
        fopt.eventSkip = eopt.eventSkip;
        fopt.withFaults = fuzz_faults;
        fopt.maxCycles = eopt.maxCycles;
        fopt.reproPath = fuzz_repro;

        std::printf("speculation fuzz campaign: %u samples per "
                    "workload, seed %llu, %u thread(s)%s\n",
                    fopt.samples,
                    static_cast<unsigned long long>(fopt.baseSeed),
                    fopt.jobs,
                    fopt.withFaults ? ", with fault injection" : "");
        const auto t0 = std::chrono::steady_clock::now();
        const sweep::FuzzReport rep = sweep::runFuzzCampaign(fopt);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        for (const sweep::FuzzOutcome &o : rep.outcomes)
            reportFuzzOutcome(o);
        std::printf("fuzzed %zu samples in %.2fs: %u divergence(s); "
                    "%llu faults injected, %llu detected by "
                    "validation\n",
                    rep.outcomes.size(), wall, rep.divergences,
                    static_cast<unsigned long long>(
                        rep.totalElemFlips + rep.totalVrmtFlips +
                        rep.totalTlFlips + rep.totalGmrbbFlips),
                    static_cast<unsigned long long>(
                        rep.totalFaultsDetected));
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
    sweep::checkRunOptions(run);

    // Warnings stay on: checkpoint fallbacks (stale snapshot, cold
    // run on geometry mismatch, no warm-up boundary) must be visible.

    const sweep::SweepPlan plan = sweep::buildPlan(plan_name, popt);
    std::printf("plan %s: %zu jobs, %u thread(s), scale %u, "
                "footprint %s%s",
                plan.name.c_str(), plan.jobs.size(), eopt.jobs,
                plan.scale, footprintName(plan.footprint),
                eopt.checkpoint && !eopt.sample.enabled()
                    ? ", checkpointed"
                    : "");
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
    else if (eopt.checkpoint)
        std::printf("checkpoint: %u of %zu jobs forked from warm "
                    "snapshots%s\n",
                    forked, outcomes.size(),
                    forked < outcomes.size() ? " (rest ran cold)" : "");
    if (unfinished)
        std::printf("warning: %u job(s) hit the cycle budget\n",
                    unfinished);

    if (metrics_summary)
        std::fputs(metrics.summaryTable().c_str(), stdout);

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
