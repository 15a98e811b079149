/**
 * @file
 * Interval sampling (SimPoint-style) for configuration sweeps: the
 * generalization of the one-boundary Simulator::warmup + Checkpoint
 * fast-forward layer to many boundaries per run.
 *
 * A SamplePlan asks for S samples of M instructions each. One *capture
 * pass* per workload (a task on the executor's pool, side by side with
 * the other workloads' passes) walks the program boundary to boundary
 * (Simulator::advanceTo), serializing a checkpoint at each; the sample
 * positions are spread evenly over the program's dynamic length
 * (counted with one cheap functional execution). Every configuration
 * of the sweep then *forks per sample* from the snapshots — the
 * (config x sample) measurements are independent jobs the executor
 * runs in parallel — and the per-sample statistics are folded into one
 * SimResult estimate: each counter is extrapolated by the region
 * weight (region instructions / measured instructions) in pure integer
 * arithmetic, so serial and parallel sweeps aggregate byte-identically.
 *
 * The first region's weight also covers the warm-up prefix, so the
 * weights sum to the program's full dynamic length and the estimated
 * IPC is comparable to a full run's.
 */

#ifndef SDV_SWEEP_SAMPLING_HH
#define SDV_SWEEP_SAMPLING_HH

#include <cstdint>
#include <vector>

#include "sim/simulator.hh"

namespace sdv {
namespace sweep {

/** What an interval-sampled measurement should look like. */
struct SamplePlan
{
    /** Number of sample intervals; 0 disables sampling. */
    unsigned samples = 0;

    /** Instructions measured per sample. */
    std::uint64_t measureInsts = 20'000;

    /** Instructions skipped before the first sample boundary (the
     *  classic warm-up; its weight folds into the first region). */
    std::uint64_t warmupInsts = 10'000;

    /**
     * Capture period in committed instructions; 0 derives the period
     * from the program's dynamic length so the samples spread evenly:
     * period = (total - warmup) / samples.
     */
    std::uint64_t periodInsts = 0;

    bool enabled() const { return samples > 0; }
};

/** One captured sample boundary. */
struct SampleCheckpoint
{
    std::uint64_t startInst = 0;   ///< absolute boundary position
    std::uint64_t regionInsts = 0; ///< weight: insts this sample stands for
    std::uint64_t measureInsts = 0; ///< insts to measure (tail-clamped)
    /** Checkpoint image; empty means "fork from reset" — the cold
     *  region [0, warmup) that every configuration measures exactly
     *  rather than extrapolating from a warm window. */
    std::vector<std::uint8_t> bytes;
};

/** The captured boundaries of one (workload, scale, footprint):
 *  samples[0] is the exact cold-start region, the rest are the warm
 *  interval snapshots. */
struct SampleSet
{
    std::uint64_t totalInsts = 0; ///< full dynamic instruction count
    std::uint64_t periodInsts = 0; ///< resolved capture period
    std::vector<SampleCheckpoint> samples;

    /** @return true when at least one warm boundary was captured. */
    bool usable() const { return samples.size() > 1; }
};

/**
 * Capture pass: walk @p prog under @p cfg and checkpoint every
 * boundary @p plan asks for. Returns an empty set (fall back to full
 * runs) when the program is too short for even one warmed sample or a
 * boundary was unreachable within @p max_cycles.
 */
SampleSet captureSamples(const CoreConfig &cfg, const Program &prog,
                         const SamplePlan &plan,
                         std::uint64_t max_cycles);

/**
 * Fold the per-sample measurements (in capture order, one SimResult
 * per SampleSet entry) into one extrapolated SimResult: every counter
 * scaled by regionInsts/measuredInsts and summed with u128 integer
 * rounding — deterministic regardless of execution order.
 */
SimResult aggregateSamples(const SampleSet &set,
                           const std::vector<SimResult> &measured);

/** FNV-1a fold of the per-sample commit hashes (capture order): the
 *  deterministic identity of a sampled run's committed streams. */
std::uint64_t foldSampleHashes(const std::vector<std::uint64_t> &hashes);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_SAMPLING_HH
