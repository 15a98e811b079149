#include "sweep/executor.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/histogram.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "common/text_file.hh"
#include "obs/telemetry.hh"
#include "sweep/checkpoint.hh"
#include "sweep/snapshot_cache.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace sweep {

void
stampOutcome(RunOutcome &out, const SweepJob &job)
{
    out.figure = job.figure;
    out.workload = job.workload;
    out.isFp = job.isFp;
    out.group = job.group;
    out.column = job.column;
    out.configKey = job.configKey;
    out.cfg = job.cfg;
    out.seed = job.seed;
}

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Programs used by a plan, keyed by workload, built once and
 *  pre-decoded so worker threads share them read-only. */
std::map<std::string, Program>
buildPrograms(const SweepPlan &plan)
{
    std::map<std::string, Program> programs;
    for (const SweepJob &job : plan.jobs) {
        if (programs.count(job.workload))
            continue;
        Program prog =
            buildWorkload(job.workload, plan.scale, plan.footprint);
        prog.predecodeAll();
        programs.emplace(job.workload, std::move(prog));
    }
    return programs;
}

/** Where a plan's jobs start: from reset, from one warm image measured
 *  to completion (--checkpoint), or from interval samples measured
 *  region by region (--samples, which takes precedence). */
enum class Mode { Full, Checkpoint, Sampled };

/**
 * Capture pass of one workload under its warm configuration @p cfg:
 * the interval samples, or the single warm image. An empty set means
 * no usable boundary — the workload's jobs run in full.
 */
SampleSet
captureSet(Mode mode, const std::string &workload, const CoreConfig &cfg,
           const Program &prog, const ExecOptions &opt)
{
    if (mode == Mode::Sampled) {
        SamplePlan sp = opt.sample;
        sp.warmupInsts = opt.warmupInsts;
        return captureSamples(cfg, prog, sp, opt.maxCycles);
    }
    SampleSet set;
    Simulator sim(cfg, prog);
    if (!sim.warmup(opt.warmupInsts, opt.maxCycles)) {
        warn("workload '", workload,
             "' reached no warm-up boundary (program finished or "
             "budget elapsed); running its jobs without a checkpoint");
        return set;
    }
    SampleCheckpoint sc;
    sc.startInst = opt.warmupInsts;
    sc.bytes = Checkpoint::capture(sim);
    set.samples.push_back(std::move(sc));
    return set;
}

} // namespace

FaultPlan
jobFaultPlan(const FaultPlan &base, const SweepJob &job)
{
    FaultPlan plan = base;
    if (plan.enabled)
        plan.seed = deriveSeed(job.workload, "fault:" + job.configKey,
                               base.seed);
    return plan;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
}

void
runOnPool(unsigned jobs, std::size_t units,
          const std::function<void(std::size_t)> &unit)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (std::size_t u = next.fetch_add(1); u < units;
             u = next.fetch_add(1))
            unit(u);
    };
    const unsigned nthreads =
        unsigned(std::min<std::size_t>(std::max(1u, jobs), units));
    if (nthreads <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

void
applyExecOverlay(CoreConfig &cfg, const ExecOptions &opt)
{
    cfg.eventSkip = opt.eventSkip;
    cfg.traceExec = opt.trace;
    cfg.engine.eagerChainLoads = opt.eagerChain;
}

CoreConfig
warmConfig(const SweepPlan &plan, const ExecOptions &opt,
           const std::string &workload)
{
    const SweepJob *warm_job = nullptr;
    for (const SweepJob &j : plan.jobs) {
        if (j.workload != workload)
            continue;
        if (!warm_job)
            warm_job = &j;
        if (j.cfg.engine.enabled) {
            warm_job = &j;
            break;
        }
    }
    sdv_assert(warm_job, "warmConfig: workload not in plan");
    CoreConfig cfg = warm_job->cfg;
    applyExecOverlay(cfg, opt);
    return cfg;
}

std::vector<RunOutcome>
runPlan(const SweepPlan &plan, const ExecOptions &opt,
        ExecMetrics *metrics)
{
    if (metrics) {
        *metrics = ExecMetrics{};
        metrics->jobsAuto = opt.jobsAutoDetected;
    }
    const Mode mode = opt.sample.enabled() ? Mode::Sampled
                      : opt.checkpoint     ? Mode::Checkpoint
                                           : Mode::Full;
    sdv_assert(mode != Mode::Sampled || !opt.verify,
               "interval sampling produces estimates that cannot be "
               "functionally verified; drop --verify");
    // Fault injection and observability apply to runs measured to
    // completion; sample measurements carry neither.
    const bool wholeRuns = mode != Mode::Sampled;
    auto jobConfig = [&](const SweepJob &job) {
        CoreConfig cfg = job.cfg;
        applyExecOverlay(cfg, opt);
        if (wholeRuns)
            cfg.engine.fault = jobFaultPlan(opt.fault, job);
        return cfg;
    };
    const std::map<std::string, Program> programs = buildPrograms(plan);

    // Snapshot sets: one capture per workload, in plan order, under the
    // workload's deterministic warm configuration, or reused from
    // --checkpoint-dir. Each is a pool task that publishes its set by
    // setting `ready`; every captured image is counted here.
    struct Capture
    {
        std::string workload;
        SampleSet set;          ///< written once, before `ready`
        bool ready = false;     ///< guarded by `published`
        double seconds = 0.0;
        std::uint64_t images = 0, bytes = 0;
    };
    std::vector<Capture> captures;
    std::mutex published;
    std::condition_variable publishedCv;
    std::map<std::string, std::size_t> captureOf;
    if (mode != Mode::Full)
        for (const SweepJob &job : plan.jobs)
            if (captureOf.emplace(job.workload, captures.size()).second)
                captures.push_back({job.workload, {}});

    // Forks: a job forks from its workload's snapshots when its machine
    // shapes the warm structures like the warm configuration that
    // captures them. A config that cannot (an ablation varying the TL
    // confidence, say) runs in full from reset instead.
    std::vector<char> forks(plan.jobs.size(), 0);
    for (std::size_t i = 0; i < plan.jobs.size() && mode != Mode::Full;
         ++i)
        forks[i] = Checkpoint::compatible(
            warmConfig(plan, opt, plan.jobs[i].workload),
            jobConfig(plan.jobs[i]));

    // Work units, planned before any set exists: a forking job gets
    // one (job, sample) unit per snapshot it asks for (the cold region
    // plus S boundaries for --samples, the warm image for
    // --checkpoint), every other job one full run (sample -1). Unit
    // order is fixed and job-major; the pool only changes who runs
    // what.
    struct Unit
    {
        std::size_t job;
        int sample; ///< index into the workload's set; -1: from reset
    };
    const unsigned forkUnits =
        mode == Mode::Sampled ? opt.sample.samples + 1 : 1;
    std::vector<Unit> units;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        if (!forks[i]) {
            units.push_back({i, -1});
            continue;
        }
        for (unsigned k = 0; k < forkUnits; ++k)
            units.push_back({i, int(k)});
    }

    // Each unit owns its slot; the fold below reads them in plan order
    // after the pool joins.
    struct Slot
    {
        SimResult res;
        std::uint64_t hash = 0;
        bool restored = false;
        std::shared_ptr<obs::TraceRecorder> trace;
        std::string telemetryJson;
        double queueWait = 0.0;
        double captureWait = 0.0;
        double wall = 0.0;
    };
    std::vector<Slot> slots(units.size());
    std::atomic<std::uint64_t> restoreCount{0}, restoreBytes{0};
    const auto poolStart = std::chrono::steady_clock::now();

    auto runCapture = [&](Capture &c) {
        const auto t0 = std::chrono::steady_clock::now();
        const Program &prog = programs.at(c.workload);
        auto capture = [&] {
            SampleSet set =
                captureSet(mode, c.workload,
                           warmConfig(plan, opt, c.workload), prog, opt);
            for (const SampleCheckpoint &sc : set.samples)
                if (!sc.bytes.empty()) {
                    ++c.images;
                    c.bytes += sc.bytes.size();
                }
            return set;
        };
        c.set = loadOrCapture(opt.checkpointDir,
                              snapshotKey(plan, opt, c.workload),
                              prog.identityHash(), capture);
        c.seconds = secondsSince(t0);
        {
            std::lock_guard<std::mutex> lock(published);
            c.ready = true;
        }
        publishedCv.notify_all();
    };

    auto runUnit = [&](std::size_t u) {
        const Unit unit = units[u];
        const SweepJob &job = plan.jobs[unit.job];
        Slot &slot = slots[u];
        slot.queueWait = secondsSince(poolStart);

        // A forking unit waits until its workload's set is published.
        // An empty set (no usable boundary) makes the job's first unit
        // its full run; a unit whose sample the set lacks has nothing
        // to do. Empty bytes: the exact cold-start region of a sampled
        // run forks from reset instead of restoring a snapshot.
        const SampleCheckpoint *sc = nullptr;
        if (unit.sample >= 0) {
            const auto w0 = std::chrono::steady_clock::now();
            const Capture &c = captures[captureOf.at(job.workload)];
            {
                std::unique_lock<std::mutex> lock(published);
                publishedCv.wait(lock, [&] { return c.ready; });
            }
            slot.captureWait = secondsSince(w0);
            const std::size_t k = std::size_t(unit.sample);
            if (k < c.set.samples.size())
                sc = &c.set.samples[k];
            else if (k > 0 || !c.set.samples.empty())
                return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        const CoreConfig cfg = jobConfig(job);
        const Program &prog = programs.at(job.workload);
        std::optional<Simulator> sim;
        sim.emplace(cfg, prog);

        if (sc && !sc->bytes.empty()) {
            restoreCount.fetch_add(1, std::memory_order_relaxed);
            restoreBytes.fetch_add(sc->bytes.size(),
                                   std::memory_order_relaxed);
            std::string err;
            slot.restored = Checkpoint::restore(*sim, sc->bytes, &err);
            if (!slot.restored) {
                // The geometry matched, so this is exceptional. A
                // failed restore may leave partial state: a whole run
                // restarts cold on a fresh simulator; a sample keeps a
                // zero-inst measurement, which drops out of the
                // weighted aggregation deterministically.
                warn("snapshot restore failed for ", job.workload, "/",
                     job.configKey, ": ", err);
                if (!wholeRuns) {
                    slot.wall = secondsSince(t0);
                    return;
                }
                sim.emplace(cfg, prog);
            }
        }

        // Flight recorder + interval telemetry (pure observation: the
        // simulated outcome is bit-identical with or without them).
        obs::IntervalTelemetry telemetry(
            opt.telemetryInterval ? opt.telemetryInterval : 1);
        if (wholeRuns && opt.traceEvents) {
            slot.trace = std::make_shared<obs::TraceRecorder>();
            slot.trace->configure(opt.traceCategories, opt.traceLast);
            sim->setRecorder(slot.trace.get());
        }
        if (wholeRuns && opt.telemetryInterval)
            sim->setTelemetry(&telemetry);

        if (wholeRuns || !sc)
            slot.res = sim->run(opt.maxCycles, opt.verify,
                                mode == Mode::Checkpoint
                                    ? 0
                                    : opt.quiesceInterval);
        else
            slot.res = sim->runInsts(sc->measureInsts, opt.maxCycles);
        slot.hash = sim->core().commitPcHash();
        if (wholeRuns && opt.telemetryInterval)
            slot.telemetryJson = telemetry.toJson();
        slot.wall = secondsSince(t0);
    };

    // One pool: it claims every capture before any unit, so a unit
    // only ever waits on a capture that a thread is already running.
    runOnPool(opt.jobs, captures.size() + units.size(),
              [&](std::size_t t) {
                  if (t < captures.size())
                      runCapture(captures[t]);
                  else
                      runUnit(t - captures.size());
              });
    const double poolWall = secondsSince(poolStart);

    // A job that could not fork from a non-empty set ran in full: one
    // warning per (workload, config), in plan order.
    std::set<std::pair<std::string, std::string>> warned;
    for (std::size_t i = 0; i < plan.jobs.size() && mode != Mode::Full;
         ++i) {
        const SweepJob &job = plan.jobs[i];
        if (!forks[i] &&
            !captures[captureOf.at(job.workload)].set.samples.empty() &&
            warned.emplace(job.workload, job.configKey).second)
            warn("running ", job.workload, "/", job.configKey,
                 " as a full run (snapshot geometry mismatch)");
    }

    // Plan-ordered fold, independent of which thread ran what: a job
    // measured to completion takes its first unit's result; a sampled
    // job is the pure integer aggregation of its per-sample
    // measurements.
    const auto collate0 = std::chrono::steady_clock::now();
    std::vector<RunOutcome> outcomes(plan.jobs.size());
    for (std::size_t u = 0, i = 0; i < plan.jobs.size(); ++i) {
        const SweepJob &job = plan.jobs[i];
        RunOutcome &out = outcomes[i];
        stampOutcome(out, job);
        out.cfg = jobConfig(job); // resolved: overlay and fault plan
        const std::size_t first = u;
        while (u < units.size() && units[u].job == i)
            out.wallSeconds += slots[u++].wall;
        Slot &s = slots[first];
        const SampleSet *set =
            forks[i] ? &captures[captureOf.at(job.workload)].set
                     : nullptr;
        if (wholeRuns || !set || set->samples.empty()) {
            out.res = std::move(s.res);
            out.commitHash = s.hash;
            out.fromCheckpoint = s.restored;
            out.trace = std::move(s.trace);
            out.telemetryJson = std::move(s.telemetryJson);
            continue;
        }
        sdv_assert(set->samples.size() <= u - first,
                   "snapshot set of ", job.workload, " holds ",
                   set->samples.size(), " samples, more than requested");
        std::vector<SimResult> measured(set->samples.size());
        std::vector<std::uint64_t> hashes(measured.size(), 0);
        for (std::size_t k = 0; k < measured.size(); ++k) {
            measured[k] = std::move(slots[first + k].res);
            hashes[k] = slots[first + k].hash;
        }
        out.res = aggregateSamples(*set, measured);
        out.commitHash = foldSampleHashes(hashes);
        out.fromCheckpoint = true;
        out.samples = unsigned(set->samples.size());
    }

    if (metrics) {
        metrics->collateSeconds = secondsSince(collate0);
        metrics->poolWallSeconds = poolWall;
        metrics->workers = unsigned(std::min<std::size_t>(
            std::max(1u, opt.jobs), captures.size() + units.size()));
        for (const Capture &c : captures) {
            metrics->captureSeconds += c.seconds;
            metrics->checkpointCaptures += c.images;
            metrics->checkpointCaptureBytes += c.bytes;
        }
        metrics->checkpointRestores =
            restoreCount.load(std::memory_order_relaxed);
        metrics->checkpointRestoreBytes =
            restoreBytes.load(std::memory_order_relaxed);
        metrics->jobs.resize(plan.jobs.size());
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            ExecMetrics::JobMetrics &jm = metrics->jobs[i];
            jm.workload = plan.jobs[i].workload;
            jm.configKey = plan.jobs[i].configKey;
            jm.queueWaitSeconds = -1.0; // min over the job's units
            jm.runSeconds = outcomes[i].wallSeconds;
            metrics->busySeconds += jm.runSeconds;
        }
        for (std::size_t u = 0; u < units.size(); ++u) {
            metrics->captureWaitSeconds += slots[u].captureWait;
            double &qw = metrics->jobs[units[u].job].queueWaitSeconds;
            if (qw < 0.0 || slots[u].queueWait < qw)
                qw = slots[u].queueWait;
        }
    }
    return outcomes;
}

std::string
resultRecordJson(const RunOutcome &o)
{
    std::string out;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"bench\": \"sweep:%s\", \"workload\": \"%s\", "
        "\"config\": \"%s\", \"cycles\": %llu, \"insts\": %llu, "
        "\"ipc\": %.4f, \"commit_hash\": \"0x%016llx\", "
        "\"finished\": %s, \"from_checkpoint\": %s, "
        "\"seed\": %llu, \"val_mismatches\": %llu",
        o.figure.c_str(), o.workload.c_str(), o.configKey.c_str(),
        static_cast<unsigned long long>(o.res.cycles),
        static_cast<unsigned long long>(o.res.insts), o.res.ipc,
        static_cast<unsigned long long>(o.commitHash),
        o.res.finished ? "true" : "false",
        o.fromCheckpoint ? "true" : "false",
        static_cast<unsigned long long>(o.seed),
        static_cast<unsigned long long>(
            o.res.engine.validationValueMismatches));
    out += buf;
    // Sampled estimates carry their sample count; exact runs keep
    // the pre-sampling record layout byte for byte.
    if (o.samples > 0) {
        std::snprintf(buf, sizeof(buf), ", \"samples\": %u",
                      o.samples);
        out += buf;
    }
    // Every field below appears only when its mode was active, so
    // default-mode documents stay byte-identical to the checked-in
    // baselines.
    if (o.res.core.quiesceEvents > 0) {
        // Transient-exposure report of the timing-channel
        // experiments (--quiesce-interval): speculative state
        // alive at each boundary plus the register lifetime
        // histogram (ascending 4x buckets from < 8 cycles).
        std::snprintf(
            buf, sizeof(buf),
            ", \"quiesce_events\": %llu, "
            "\"quiesce_live_vregs\": %llu, "
            "\"quiesce_transient_elems\": %llu",
            static_cast<unsigned long long>(
                o.res.core.quiesceEvents),
            static_cast<unsigned long long>(
                o.res.core.quiesceLiveVregs),
            static_cast<unsigned long long>(
                o.res.core.quiesceTransientElems));
        out += buf;
        out += ", \"vreg_lifetime_hist\": ";
        out += bucketArrayJson(o.res.fates.lifetimeHist, 8);
    }
    if (o.cfg.engine.fault.armed()) {
        std::snprintf(
            buf, sizeof(buf),
            ", \"fault_elem_flips\": %llu, "
            "\"fault_vrmt_flips\": %llu, "
            "\"faults_detected\": %llu, "
            "\"faults_benign\": %llu, "
            "\"faults_vanished\": %llu, "
            "\"chain_demotions\": %llu, "
            "\"chain_reenables\": %llu, "
            "\"fault_tl_flips\": %llu, "
            "\"fault_gmrbb_flips\": %llu",
            static_cast<unsigned long long>(
                o.res.engine.faultElemFlips),
            static_cast<unsigned long long>(
                o.res.engine.faultVrmtFlips),
            static_cast<unsigned long long>(
                o.res.engine.faultValidationDetects +
                o.res.engine.faultTaintDetects +
                o.res.engine.faultVrmtDetects),
            static_cast<unsigned long long>(
                o.res.engine.faultValidationBenign),
            static_cast<unsigned long long>(
                o.res.fates.faultInjectedVanished +
                o.res.fates.faultTaintVanished),
            static_cast<unsigned long long>(
                o.res.engine.faultChainDemotions),
            static_cast<unsigned long long>(
                o.res.engine.faultChainReenables),
            static_cast<unsigned long long>(
                o.res.engine.faultTlFlips),
            static_cast<unsigned long long>(
                o.res.engine.faultGmrbbFlips));
        out += buf;
    }
    // Interval telemetry rides along only when it was sampled
    // (--telemetry): default-mode records stay byte-identical.
    if (!o.telemetryJson.empty() && o.telemetryJson != "[]") {
        out += ", \"telemetry\": ";
        out += o.telemetryJson;
    }
    out += "}";
    return out;
}

std::string
resultsJson(const std::vector<RunOutcome> &outcomes)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        out += resultRecordJson(outcomes[i]);
        out += i + 1 < outcomes.size() ? ",\n" : "\n";
    }
    out += "]";
    return out;
}

std::vector<obs::TraceSource>
traceSources(const std::vector<RunOutcome> &outcomes)
{
    std::vector<obs::TraceSource> sources;
    for (const RunOutcome &o : outcomes)
        if (o.trace)
            sources.push_back(
                {o.trace.get(), o.workload + "/" + o.configKey});
    return sources;
}

std::string
ExecMetrics::toJson() const
{
    char buf[256];
    std::string out = "{";
    std::snprintf(
        buf, sizeof(buf),
        "\"workers\": %u, \"jobs_auto\": %s, "
        "\"pool_wall_seconds\": %.6f, "
        "\"busy_seconds\": %.6f, \"utilization\": %.4f, "
        "\"collate_seconds\": %.6f, \"capture_seconds\": %.6f, "
        "\"capture_wait_seconds\": %.6f",
        workers, jobsAuto ? "true" : "false", poolWallSeconds,
        busySeconds, utilization(), collateSeconds, captureSeconds,
        captureWaitSeconds);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        ", \"checkpoint_captures\": %llu, "
        "\"checkpoint_capture_bytes\": %llu, "
        "\"checkpoint_restores\": %llu, "
        "\"checkpoint_restore_bytes\": %llu",
        static_cast<unsigned long long>(checkpointCaptures),
        static_cast<unsigned long long>(checkpointCaptureBytes),
        static_cast<unsigned long long>(checkpointRestores),
        static_cast<unsigned long long>(checkpointRestoreBytes));
    out += buf;
    out += ", \"jobs\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobMetrics &j = jobs[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"workload\": \"%s\", \"config\": \"%s\", "
                      "\"queue_wait_seconds\": %.6f, "
                      "\"run_seconds\": %.6f}",
                      i ? ", " : "", j.workload.c_str(),
                      j.configKey.c_str(), j.queueWaitSeconds,
                      j.runSeconds);
        out += buf;
    }
    out += "]}";
    return out;
}

std::string
ExecMetrics::summaryTable() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "executor: %u worker%s%s, pool %.2fs, busy %.2fs "
                  "(%.0f%% utilization), collate %.3fs\n",
                  workers, workers == 1 ? "" : "s",
                  jobsAuto ? " (auto)" : "", poolWallSeconds,
                  busySeconds, utilization() * 100.0, collateSeconds);
    out += buf;
    if (captureSeconds > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      "capture: %.2fs on the pool, units waited %.2fs\n",
                      captureSeconds, captureWaitSeconds);
        out += buf;
    }
    if (checkpointCaptures || checkpointRestores) {
        std::snprintf(
            buf, sizeof(buf),
            "checkpoints: %llu captured (%llu bytes), %llu restored "
            "(%llu bytes)\n",
            static_cast<unsigned long long>(checkpointCaptures),
            static_cast<unsigned long long>(checkpointCaptureBytes),
            static_cast<unsigned long long>(checkpointRestores),
            static_cast<unsigned long long>(checkpointRestoreBytes));
        out += buf;
    }
    out += "  queue-wait      run  job\n";
    for (const JobMetrics &j : jobs) {
        std::snprintf(buf, sizeof(buf), "  %9.3fs %7.2fs  %s/%s\n",
                      j.queueWaitSeconds, j.runSeconds,
                      j.workload.c_str(), j.configKey.c_str());
        out += buf;
    }
    return out;
}

bool
writeJsonDoc(const std::string &path, const std::string &planName,
             unsigned scale, Footprint footprint,
             const ExecOptions &opt, const std::string &resultsArray,
             double wall_seconds, const std::string &execMetricsJson)
{
    // Footprint and sampling metadata appear only when used, so the
    // default-mode document stays byte-identical to pre-sampling runs.
    std::string extra;
    if (footprint != Footprint::Base)
        extra += std::string(", \"footprint\": \"") +
                 footprintName(footprint) + "\"";
    if (opt.sample.enabled()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ", \"samples\": %u, \"measure_insts\": %llu",
                      opt.sample.samples,
                      static_cast<unsigned long long>(
                          opt.sample.measureInsts));
        extra += buf;
    }
    // Host-side executor metrics appear only when collected
    // (--metrics-summary / --metrics): the default-mode document stays
    // byte-identical to the checked-in baselines.
    std::string exec_metrics;
    if (!execMetricsJson.empty())
        exec_metrics = "\"exec_metrics\": " + execMetricsJson + ",\n";
    std::string doc;
    appendf(
        doc,
        "{\n\"sweep\": {\"plan\": \"%s\", \"scale\": %u, "
        "\"event_skip\": %s, \"trace\": %s, \"checkpoint\": %s, "
        "\"warmup_insts\": %llu%s, \"wall_seconds\": %.6f},\n"
        "%s\"results\": %s\n}\n",
        planName.c_str(), scale, opt.eventSkip ? "true" : "false",
        opt.trace ? "true" : "false",
        opt.checkpoint ? "true" : "false",
        static_cast<unsigned long long>(opt.warmupInsts), extra.c_str(),
        wall_seconds, exec_metrics.c_str(), resultsArray.c_str());
    return writeTextFile(path, doc);
}

} // namespace sweep
} // namespace sdv
