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
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hh"
#include "obs/hooks.hh"
#include "sweep/executor.hh"
#include "sweep/fuzz.hh"
#include "sweep/plan.hh"

using namespace sdv;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --plan NAME [options]\n"
        "       %s --list\n"
        "options:\n"
        "  --plan NAME       plan to run (see --list; 'all' runs "
        "everything)\n"
        "  --list            list registered plans and exit\n"
        "  --jobs N          worker threads (default 1; 0 = auto: "
        "hardware threads minus one)\n"
        "  --scale N         workload scale factor (default 1, >= 1)\n"
        "  --footprint M     working-set regime: base, l2 or mem "
        "(default base)\n"
        "  --quick           first two INT + first FP workloads only\n"
        "  --no-event-skip   tick every cycle (cross-check mode)\n"
        "  --no-trace        interpreter dispatch instead of the "
        "compiled trace (cross-check mode)\n"
        "  --checkpoint      warm each workload once, fork every "
        "config from the snapshot\n"
        "  --warmup N        checkpoint/sampling warm-up length in "
        "instructions (default 10000)\n"
        "  --samples N       interval sampling: estimate every job "
        "from N snapshot forks\n"
        "  --sample-insts M  instructions measured per sample "
        "(default 20000)\n"
        "  --sample-period P capture period in insts (default: spread "
        "evenly over the run)\n"
        "  --checkpoint-dir D  persist snapshot sets (--checkpoint and "
        "--samples) in D and reuse them on later runs\n"
        "  --quiesce-interval N  context-switch the transient vector\n"
        "                    state every N fetched instructions\n"
        "                    (steady-state experiments; full runs "
        "only)\n"
        "  --eager-chain     spawn load-chain successors one "
        "incarnation early\n"
        "  --verify          run functional verification per job\n"
        "  --seed N          base of the per-job RNG stream seeds "
        "(recorded per job in the JSON; today's workloads are fully "
        "deterministic, so results do not change)\n"
        "  --job-timeout S   wall-clock watchdog: abort any job (or "
        "sample of one) running longer than S seconds, retry it once "
        "serially\n"
        "  --fault-elem-ppm N  inject vector-element bit flips at N "
        "per million landings (adversarial robustness runs)\n"
        "  --fault-vrmt-ppm N  corrupt VRMT installs at N per million\n"
        "  --json PATH       write machine-readable results\n"
        "observability (docs/observability.md):\n"
        "  --trace-events F  record per-job flight-recorder traces and "
        "write Chrome/Perfetto trace-event JSON to F\n"
        "  --trace-filter C  comma list of event categories to record: "
        "sdv, mem, core (default all)\n"
        "  --trace-last N    bound each job's trace to the last N "
        "events (ring buffer; default unbounded)\n"
        "  --telemetry N     sample interval telemetry every N cycles, "
        "emitted per record in the JSON\n"
        "  --metrics-summary print executor metrics (queue wait, run "
        "time, utilization, checkpoint traffic) and record them in the "
        "JSON as \"exec_metrics\"\n"
        "fuzzing (instead of --plan):\n"
        "  --fuzz-speculation  run the speculation fuzz campaign: "
        "every workload x N fuzzed samples, each checked against a "
        "no-vectorization divergence oracle; exits non-zero on any "
        "divergence and writes a minimized replayable repro\n"
        "  --fuzz-samples N  fuzzed samples per workload (default 8)\n"
        "  --fuzz-no-faults  fuzz without concurrent fault injection\n"
        "  --fuzz-repro PATH where to write a divergence repro "
        "(default fuzz_repro.json)\n"
        "  --fuzz-replay F   re-run one case from a repro file\n",
        argv0, argv0);
    std::exit(2);
}

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
                    static_cast<unsigned long long>(o.elemFlips +
                                                    o.vrmtFlips),
                    static_cast<unsigned long long>(o.faultsDetected),
                    static_cast<unsigned long long>(o.chainDemotions));
    std::printf("\n");
    return o.diverged;
}

std::uint64_t
numArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage(argv[0]);
    return std::strtoull(argv[++i], nullptr, 0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string plan_name;
    std::string json_path;
    sweep::PlanOptions popt;
    sweep::ExecOptions eopt;
    std::string trace_path;
    bool metrics_summary = false;
    bool list = false;
    bool fuzz = false;
    unsigned fuzz_samples = 8;
    bool fuzz_faults = true;
    std::string fuzz_repro = "fuzz_repro.json";
    std::string fuzz_replay;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--plan") == 0 && i + 1 < argc) {
            plan_name = argv[++i];
        } else if (std::strcmp(argv[i], "--list") == 0) {
            list = true;
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            eopt.jobs = unsigned(numArg(argc, argv, i));
            if (eopt.jobs == 0) {
                eopt.jobs = sweep::resolveJobs(0);
                eopt.jobsAutoDetected = true;
            }
        } else if (std::strcmp(argv[i], "--scale") == 0) {
            popt.scale = unsigned(numArg(argc, argv, i));
            if (popt.scale == 0)
                fatal("--scale 0 is invalid: the scale is a dynamic-"
                      "length multiplier and must be >= 1");
        } else if (std::strcmp(argv[i], "--footprint") == 0 &&
                   i + 1 < argc) {
            popt.footprint = parseFootprint(argv[++i]);
        } else if (std::strcmp(argv[i], "--samples") == 0) {
            const std::uint64_t samples = numArg(argc, argv, i);
            if (samples > 100'000) // catches negative-value wraps too
                fatal("--samples ", samples, " is not a sensible "
                      "sample count");
            eopt.sample.samples = unsigned(samples);
        } else if (std::strcmp(argv[i], "--sample-insts") == 0) {
            eopt.sample.measureInsts = numArg(argc, argv, i);
            if (eopt.sample.measureInsts == 0)
                fatal("--sample-insts must be >= 1");
        } else if (std::strcmp(argv[i], "--sample-period") == 0) {
            eopt.sample.periodInsts = numArg(argc, argv, i);
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            popt.quick = true;
        } else if (std::strcmp(argv[i], "--no-event-skip") == 0) {
            eopt.eventSkip = false;
        } else if (std::strcmp(argv[i], "--no-trace") == 0) {
            eopt.trace = false;
        } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
            eopt.checkpoint = true;
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            eopt.warmupInsts = numArg(argc, argv, i);
            if (eopt.warmupInsts == 0)
                eopt.warmupInsts = 1;
        } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 &&
                   i + 1 < argc) {
            eopt.checkpointDir = argv[++i];
        } else if (std::strcmp(argv[i], "--quiesce-interval") == 0) {
            eopt.quiesceInterval = numArg(argc, argv, i);
        } else if (std::strcmp(argv[i], "--eager-chain") == 0) {
            eopt.eagerChain = true;
        } else if (std::strcmp(argv[i], "--verify") == 0) {
            eopt.verify = true;
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            popt.baseSeed = numArg(argc, argv, i);
        } else if (std::strcmp(argv[i], "--job-timeout") == 0) {
            eopt.jobTimeout = numArg(argc, argv, i);
        } else if (std::strcmp(argv[i], "--fault-elem-ppm") == 0) {
            eopt.fault.elemFlipPpm =
                unsigned(numArg(argc, argv, i));
            eopt.fault.enabled = true;
        } else if (std::strcmp(argv[i], "--fault-vrmt-ppm") == 0) {
            eopt.fault.vrmtFlipPpm =
                unsigned(numArg(argc, argv, i));
            eopt.fault.enabled = true;
        } else if (std::strcmp(argv[i], "--fuzz-speculation") == 0) {
            fuzz = true;
        } else if (std::strcmp(argv[i], "--fuzz-samples") == 0) {
            fuzz_samples = unsigned(numArg(argc, argv, i));
            if (fuzz_samples == 0 || fuzz_samples > 100'000)
                fatal("--fuzz-samples ", fuzz_samples,
                      " is not a sensible sample count");
        } else if (std::strcmp(argv[i], "--fuzz-no-faults") == 0) {
            fuzz_faults = false;
        } else if (std::strcmp(argv[i], "--fuzz-repro") == 0 &&
                   i + 1 < argc) {
            fuzz_repro = argv[++i];
        } else if (std::strcmp(argv[i], "--fuzz-replay") == 0 &&
                   i + 1 < argc) {
            fuzz_replay = argv[++i];
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-events") == 0 &&
                   i + 1 < argc) {
            trace_path = argv[++i];
            eopt.traceEvents = true;
        } else if (std::strcmp(argv[i], "--trace-filter") == 0 &&
                   i + 1 < argc) {
            if (!obs::parseCategoryMask(argv[++i],
                                        eopt.traceCategories))
                fatal("--trace-filter: unknown category in '", argv[i],
                      "' (use a comma list of sdv, mem, core)");
        } else if (std::strcmp(argv[i], "--trace-last") == 0) {
            eopt.traceLast = std::size_t(numArg(argc, argv, i));
        } else if (std::strcmp(argv[i], "--telemetry") == 0) {
            eopt.telemetryInterval = numArg(argc, argv, i);
            if (eopt.telemetryInterval == 0)
                fatal("--telemetry needs an interval >= 1 cycle");
        } else if (std::strcmp(argv[i], "--metrics-summary") == 0) {
            metrics_summary = true;
        } else {
            usage(argv[0]);
        }
    }

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
                        rep.totalElemFlips + rep.totalVrmtFlips),
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
        usage(argv[0]);
    if (!sweep::havePlan(plan_name))
        fatal("unknown plan '", plan_name, "' (try --list)");
    if (eopt.sample.enabled() && eopt.verify)
        fatal("--verify is incompatible with --samples: sampled "
              "results are estimates, not verifiable runs");
    if (eopt.sample.enabled() && eopt.checkpoint)
        warn("--samples subsumes --checkpoint; sampling mode used");
    if (eopt.sample.enabled() &&
        (eopt.traceEvents || eopt.telemetryInterval))
        warn("--trace-events/--telemetry only observe full runs; "
             "sampled jobs are not instrumented");
    if (eopt.traceEvents && !SDV_OBS_ENABLED)
        warn("this build has SDV_OBS off: the trace file will contain "
             "no events");

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

    if (!trace_path.empty()) {
        // Serialize in plan order (pid = plan index): serial and
        // parallel sweeps write byte-identical trace files.
        const std::vector<obs::TraceSource> sources =
            sweep::traceSources(outcomes);
        if (!obs::writeTraceFile(trace_path, sources))
            fatal("cannot write ", trace_path);
        std::size_t recorded = 0;
        for (const obs::TraceSource &s : sources)
            recorded += s.recorder->size();
        std::printf("trace: %zu events from %zu jobs written to %s\n",
                    recorded, sources.size(), trace_path.c_str());
    }

    if (!json_path.empty()) {
        if (!sweep::writeJsonDoc(json_path, plan.name, plan.scale,
                                 plan.footprint, eopt,
                                 sweep::resultsJson(outcomes), wall,
                                 metrics_summary ? metrics.toJson()
                                                 : std::string()))
            fatal("cannot write ", json_path);
        std::printf("results written to %s\n", json_path.c_str());
    }
    return 0;
}
