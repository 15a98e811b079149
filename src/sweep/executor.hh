/**
 * @file
 * Parallel sweep executor: runs a SweepPlan's jobs on a pool of worker
 * threads, one private Simulator per work unit (simulations share no
 * mutable state — the only shared objects are the pre-decoded
 * programs and the snapshot sets, immutable once published), and
 * collates results in plan order. Results are a pure function of the
 * plan and options: serial and parallel execution produce
 * byte-identical JSON.
 *
 * Full and sampled runs go through one pipeline: the programs, then
 * one pool that runs a capture task per workload (none for full runs,
 * the interval samples for --samples) ahead of the (job, sample) units
 * that wait on them, then a plan-ordered fold. A sampled job forks
 * from its workload's snapshots when Checkpoint::compatible says its
 * configuration can take them. See src/sweep/checkpoint.hh,
 * src/sweep/sampling.hh and docs/sweep.md.
 */

#ifndef SDV_SWEEP_EXECUTOR_HH
#define SDV_SWEEP_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "sweep/plan.hh"
#include "sweep/sampling.hh"

namespace sdv {
namespace sweep {

/** Execution options (orthogonal to the plan itself). */
struct ExecOptions
{
    unsigned jobs = 1;          ///< worker threads
    /** True when jobs was resolved by --jobs 0 auto-detection
     *  (resolveJobs); reported in exec_metrics as "jobs_auto". */
    bool jobsAutoDetected = false;
    bool trace = true;          ///< trace-compiled dispatch (--no-trace)
    std::uint64_t warmupInsts = 10'000; ///< sampling warm-up length
    /** Cycle budget of every simulation (capture pass, run, sample
     *  measurement): the executor's one bound. */
    std::uint64_t maxCycles = 200'000'000;
    bool verify = false;        ///< functional verification per job
    /** Context-switch the transient vector state every N fetched
     *  instructions (0 = never). Full runs only: runPlan rejects it
     *  with sampling, whose jobs quiesce at their own boundaries. */
    std::uint64_t quiesceInterval = 0;
    /** EngineConfig::eagerChainLoads on every job's machine (a job
     *  whose config already chains eagerly keeps doing so). */
    bool eagerChain = false;
    /** Always empty; the benchmark's replay driver still reads it. */
    FaultPlan fault;
    /** Interval sampling: when enabled (samples > 0), every job is
     *  estimated from per-sample forks instead of a full run, and the
     *  per-(job, sample) measurements are what the worker pool
     *  parallelizes. warmupInsts is the sampling warm-up.
     *  Incompatible with `verify` (estimates cannot be verified). */
    SamplePlan sample;

    // --- observability (all default-off: the default-mode JSON stays
    // byte-identical to the checked-in baselines; docs/observability.md)
    /** Attach a flight recorder to every job (--trace-events). Needs
     *  an SDV_OBS build (the default) to record anything; the
     *  recorders come back in RunOutcome::trace for plan-ordered
     *  serialization. Full runs only: runPlan rejects it with
     *  sampling. */
    bool traceEvents = false;
    /** Event-category mask for the recorders (--trace-filter). */
    unsigned traceCategories = obs::CatAll;
    /** Ring capacity: keep only the last N events per job
     *  (--trace-last; 0 = unbounded append). */
    std::size_t traceLast = 0;
    /** Interval telemetry: sample CoreStats/EngineStats deltas every N
     *  cycles per job (--telemetry; 0 = off). Emitted as the
     *  per-record "telemetry" array. Full runs only: runPlan rejects
     *  it with sampling. */
    std::uint64_t telemetryInterval = 0;
};

/** Host-side execution metrics (--metrics-summary / "exec_metrics"):
 *  wall-clock observations of the pool itself, deliberately kept out
 *  of resultsJson() — they vary run to run and must never perturb the
 *  deterministic payload. */
struct ExecMetrics
{
    unsigned workers = 0;       ///< pool threads actually used
    bool jobsAuto = false;      ///< workers came from --jobs 0 auto-detect
    double poolWallSeconds = 0.0; ///< pool start to join
    double busySeconds = 0.0;   ///< sum of unit run times
    double captureSeconds = 0.0; ///< sum of capture task times
    /** Sum of the time units spent blocked until their workload's
     *  snapshot set was published (in neither busy nor capture). */
    double captureWaitSeconds = 0.0;
    double collateSeconds = 0.0; ///< plan-ordered aggregation/serialization
    std::uint64_t checkpointCaptures = 0;    ///< snapshot images captured
    std::uint64_t checkpointCaptureBytes = 0;
    std::uint64_t checkpointRestores = 0;    ///< forks from snapshots
    std::uint64_t checkpointRestoreBytes = 0;

    /** Per-job host timing, plan order. */
    struct JobMetrics
    {
        std::string workload;
        std::string configKey;
        double queueWaitSeconds = 0.0; ///< pool start -> job start
        double runSeconds = 0.0;       ///< job simulation time
    };
    std::vector<JobMetrics> jobs;

    /** @return (busySeconds + captureSeconds) / (workers *
     *  poolWallSeconds), in [0, 1]: captures are pool work too. */
    double
    utilization() const
    {
        const double cap = double(workers) * poolWallSeconds;
        return cap <= 0.0 ? 0.0 : (busySeconds + captureSeconds) / cap;
    }

    /** @return the "exec_metrics" JSON object. */
    std::string toJson() const;

    /** @return a human-readable summary table (--metrics-summary). */
    std::string summaryTable() const;
};

/** One job's outcome (self-contained: carries the job identity). */
struct RunOutcome
{
    std::string figure;
    std::string workload;
    bool isFp = false;
    std::string group;
    std::string column;
    std::string configKey;
    CoreConfig cfg; ///< the job's machine config (metric extraction)
    std::uint64_t seed = 0;

    SimResult res;
    std::uint64_t commitHash = 0;
    bool fromCheckpoint = false; ///< estimated from snapshot forks
    /** Interval sampling: number of samples res was aggregated from
     *  (0 for an exact full run; res.sampled mirrors this). For a
     *  sampled job, commitHash is the FNV fold of the per-sample
     *  commit-stream hashes in capture order. */
    unsigned samples = 0;
    double wallSeconds = 0.0; ///< host timing; kept out of the
                              ///< deterministic JSON payload

    /** Flight recorder this job filled (ExecOptions::traceEvents;
     *  null otherwise). shared_ptr so outcomes stay copyable. */
    std::shared_ptr<obs::TraceRecorder> trace;
    /** Interval-telemetry JSON array ("[...]") for this job
     *  (ExecOptions::telemetryInterval; empty otherwise). */
    std::string telemetryJson;
};

/**
 * Run every job of @p plan and return outcomes in plan order.
 * Programs are built and pre-decoded up front (one per workload,
 * shared read-only); snapshot sets, when enabled, are captured by
 * pool tasks that the pool claims before any unit. A Simulator is
 * built only by the capture passes and by the work units.
 */
std::vector<RunOutcome> runPlan(const SweepPlan &plan,
                                const ExecOptions &opt,
                                ExecMetrics *metrics = nullptr);

/**
 * @return the deterministic JSON results array for @p outcomes: one
 * record per job with simulated statistics and the commit-stream hash
 * only (no host timings), byte-identical across --jobs settings.
 */
std::string resultsJson(const std::vector<RunOutcome> &outcomes);

/**
 * @return one complete record of the resultsJson() array ("  {...}",
 * no trailing separator).
 */
std::string resultRecordJson(const RunOutcome &o);

/**
 * Write the full sweep JSON document: a "sweep" metadata object (plan,
 * scale, options, total wall time), the optional "exec_metrics" object
 * (ExecMetrics::toJson) and the serialized results array (resultsJson)
 * under "results". tools/compare_bench.py understands this schema.
 * @return false when the file could not be written in full
 */
bool writeJsonDoc(const std::string &path, const std::string &planName,
                  unsigned scale, Footprint footprint,
                  const ExecOptions &opt,
                  const std::string &resultsArray, double wall_seconds,
                  const std::string &execMetricsJson = std::string());

/**
 * Resolve an ExecOptions::jobs request: 0 means auto-detect — the
 * host's hardware_concurrency minus one (for the collator/driver
 * thread), never below 1.
 */
unsigned resolveJobs(unsigned requested);

/**
 * Run @p unit(0) .. @p unit(units - 1) on min(jobs, units) pool
 * threads, each pulling the next index in order (one thread: inline,
 * in order). Callers write results into per-index slots, so the
 * outcome never depends on which thread ran what.
 */
void runOnPool(unsigned jobs, std::size_t units,
               const std::function<void(std::size_t)> &unit);

/** Apply the option overlay every execution path puts on a job's
 *  machine config (clocking, dispatch mechanism, chaining mode). */
void applyExecOverlay(CoreConfig &cfg, const ExecOptions &opt);

/**
 * @return the deterministic warm-up configuration for @p workload
 * under @p plan: its first engine-enabled job (falling back to its
 * first job), with the exec overlay applied. This is the machine the
 * capture pass runs.
 */
CoreConfig warmConfig(const SweepPlan &plan, const ExecOptions &opt,
                      const std::string &workload);

/** @return an empty plan. Kept because the benchmark's replay driver
 *  still calls it. */
inline FaultPlan
jobFaultPlan(const FaultPlan &, const SweepJob &)
{
    return {};
}

/** Fill the identity fields of @p out from @p job (figure, workload,
 *  group/column, config, seed). */
void stampOutcome(RunOutcome &out, const SweepJob &job);

/**
 * @return the outcomes' recorders as plan-ordered trace sources
 * (labels "<workload>/<config>", pid = plan index): the argument for
 * obs::writeTraceFile, byte-identical across --jobs settings.
 */
std::vector<obs::TraceSource>
traceSources(const std::vector<RunOutcome> &outcomes);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_EXECUTOR_HH
