/**
 * @file
 * Top-level simulation driver: runs a program on a configured core to
 * completion, verifies the committed stream against an independent
 * functional execution, and gathers every statistic the sweeps and
 * figure reports need.
 */

#ifndef SDV_SIM_SIMULATOR_HH
#define SDV_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/core.hh"
#include "sim/config.hh"

namespace sdv {

namespace obs {
class IntervalTelemetry;
} // namespace obs

/** Everything measured by one simulation. */
struct SimResult
{
    bool finished = false;      ///< HALT committed within the budget
    bool verified = false;      ///< committed stream matches functional
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0.0;

    CoreStats core;
    EngineStats engine;
    DatapathStats datapath;
    PortStats ports;
    WideBusBreakdown wideBus;   ///< Figure 13
    VecRegFateStats fates;      ///< Figure 15
    CacheStats l1d;
    CacheStats l1i;
    CacheStats l2;

    /** Total L1D port requests (the paper's "memory requests"). */
    std::uint64_t
    memoryRequests() const
    {
        return ports.readAccesses + ports.writeAccesses;
    }

    /** Fraction of committed instructions that were validations. */
    double
    validationFraction() const
    {
        return core.committedInsts == 0
                   ? 0.0
                   : double(core.committedValidations) /
                         double(core.committedInsts);
    }

    /** Figure 10 fraction: reused instructions among post-mispredict
     *  window instructions. */
    double
    controlIndependenceFraction() const
    {
        return core.postMispredictWindowInsts == 0
                   ? 0.0
                   : double(core.postMispredictReused) /
                         double(core.postMispredictWindowInsts);
    }
};

/** One statistics block of a SimResult, viewed as its u64 counters. */
template <typename Word>
struct StatsBlock
{
    const char *name; ///< the SimResult member ("core", "l2")
    std::span<Word> words;
};

/**
 * @return the nine statistics blocks of @p r in declaration order, as
 * u64 spans (writable when @p r is). Each block is a flat array of u64
 * counters (asserted: a non-u64 field fails to compile rather than
 * being mis-walked), so code that treats every counter alike walks
 * these spans instead of listing fields.
 */
template <typename Result>
    requires std::is_same_v<std::remove_const_t<Result>, SimResult>
auto
statsBlocks(Result &r)
{
    using Word = std::conditional_t<std::is_const_v<Result>,
                                    const std::uint64_t, std::uint64_t>;
    const auto block = [](const char *name, auto &stats) {
        using Stats = std::remove_cvref_t<decltype(stats)>;
        static_assert(std::is_trivially_copyable_v<Stats> &&
                          sizeof(Stats) % sizeof(std::uint64_t) == 0,
                      "stats struct must be a flat array of u64 counters");
        return StatsBlock<Word>{
            name, {reinterpret_cast<Word *>(&stats),
                   sizeof(Stats) / sizeof(std::uint64_t)}};
    };
    return std::array{block("core", r.core),
                      block("engine", r.engine),
                      block("datapath", r.datapath),
                      block("ports", r.ports),
                      block("wideBus", r.wideBus),
                      block("fates", r.fates),
                      block("l1d", r.l1d),
                      block("l1i", r.l1i),
                      block("l2", r.l2)};
}

/** One-program, one-configuration simulation. */
class Simulator
{
  public:
    /**
     * @param cfg machine configuration
     * @param prog program (must outlive the simulator)
     */
    Simulator(const CoreConfig &cfg, const Program &prog);

    /**
     * Run to HALT (or @p max_cycles).
     * @param verify re-run the program functionally and compare the
     *        committed stream / final state
     * @param quiesce_interval when non-zero, drain the pipeline and
     *        context-switch the transient vector state every this many
     *        fetched instructions (clock and statistics keep
     *        accumulating): the CLI-reproducible form of the
     *        measurement-boundary quiesce, for steady-state
     *        experiments (--quiesce-interval)
     */
    SimResult run(std::uint64_t max_cycles = 50'000'000,
                  bool verify = true,
                  std::uint64_t quiesce_interval = 0);

    /**
     * Warm up: advance to the measurement boundary at *absolute*
     * committed-instruction count @p target_insts (counted from
     * program start, warm-up regions included), drain, quiesce
     * transient vector state (caches, predictors and the Table of
     * Loads stay warm) and rebase the clock and statistics to zero.
     * Callable repeatedly with increasing targets — the
     * interval-sampling engine walks a run boundary to boundary,
     * capturing a checkpoint at each.
     *
     * @retval false when the boundary is unreachable (the program ran
     *         to HALT first, or the cycle budget elapsed in flight);
     *         the simulator must then be discarded
     */
    bool advanceTo(std::uint64_t target_insts,
                   std::uint64_t max_cycles = 50'000'000);

    /**
     * Measure a bounded region: run until @p insts more instructions
     * have been fetched and fully drained through the pipeline (or
     * HALT commits first), then finalize and return the statistics of
     * the region since the last measurement boundary. Used for the
     * per-sample measurement of an interval-sampled run; run() remains
     * the to-completion path.
     */
    SimResult runInsts(std::uint64_t insts,
                       std::uint64_t max_cycles = 50'000'000);

    /** Attach a flight recorder (forwards to the core and every
     *  instrumented component; null detaches). Pure observation. */
    void setRecorder(obs::TraceRecorder *rec) { core_.setRecorder(rec); }

    /** Attach an interval-telemetry collector (null detaches). run()
     *  begins it at loop entry, samples it whenever the clock crosses
     *  an interval boundary, and flushes the final partial interval
     *  before finalize() — so the sample deltas sum exactly to the
     *  end-of-run aggregates. Only run() samples; the bounded-region
     *  entry points (runInsts/advanceTo) ignore it. */
    void setTelemetry(obs::IntervalTelemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

    /** @return the core (inspection/tests). */
    Core &core() { return core_; }

    /** @return the program under simulation. */
    const Program &program() const { return prog_; }

  private:
    /** The one tick loop: cap fetch at @p fetch_limit (0: none) and
     *  tick until the capped stream has drained, HALT commits (with
     *  @p stop_at_halt) or the clock reaches @p max_cycles, sampling
     *  @p telemetry (may be null). @return false when the budget ran
     *  out first. */
    bool tickUntil(std::uint64_t fetch_limit, bool stop_at_halt,
                   std::uint64_t max_cycles,
                   obs::IntervalTelemetry *telemetry);

    /** Gather every statistic of the (finalized) core into @p res. */
    void collect(SimResult &res);

    const Program &prog_;
    Core core_;
    obs::IntervalTelemetry *telemetry_ = nullptr;
};

/** Convenience wrapper: build, run, return the result. */
SimResult simulate(const CoreConfig &cfg, const Program &prog,
                   std::uint64_t max_cycles = 50'000'000,
                   bool verify = true);

} // namespace sdv

#endif // SDV_SIM_SIMULATOR_HH
