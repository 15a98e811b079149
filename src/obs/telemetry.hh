/**
 * @file
 * Interval telemetry: periodic snapshots of CoreStats/EngineStats
 * deltas every N cycles, producing a per-interval time series (IPC,
 * fetch-stall breakdown, live-vreg occupancy, validation activity)
 * emitted as a "telemetry" array next to the end-of-run aggregates.
 *
 * Samples are taken on interval boundaries of the simulated clock,
 * which ticks one cycle at a time, so every sample but the last spans
 * exactly one interval. A final flush captures the partial last
 * interval so that the per-field sums equal the end-of-run aggregate
 * counters exactly.
 */

#ifndef SDV_OBS_TELEMETRY_HH
#define SDV_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sdv {

class Core;

namespace obs {

/** Stat deltas over one sampling interval. */
struct TelemetrySample
{
    Cycle startCycle = 0;
    Cycle endCycle = 0;
    std::uint64_t insts = 0;
    std::uint64_t fetchStallCycles = 0;
    std::uint64_t fetchStallValWaitCycles = 0;
    std::uint64_t validations = 0;     ///< committed validations
    std::uint64_t valFallbacks = 0;    ///< late validation fallbacks
    unsigned liveVregs = 0;            ///< occupancy at endCycle

    /** @return interval length in cycles. */
    std::uint64_t cycles() const { return endCycle - startCycle; }

    /** @return interval IPC (0 for an empty interval). */
    double
    ipc() const
    {
        return cycles() ? double(insts) / double(cycles()) : 0.0;
    }
};

/** Periodic sampler driven from the Simulator run loop. */
class IntervalTelemetry
{
  public:
    /** @param interval sampling period in cycles (must be > 0) */
    explicit IntervalTelemetry(Cycle interval);

    /** @return sampling period. */
    Cycle interval() const { return interval_; }

    /** Rebase on the core's current counters at run start. */
    void begin(Core &core);

    /** @return whether the core clock has crossed the next boundary. */
    bool due(Cycle now) const { return now >= next_; }

    /** Take one boundary sample and re-arm for the next boundary. */
    void sample(Core &core);

    /** Flush the partial final interval (no-op if nothing elapsed). */
    void finish(Core &core);

    /** @return all samples taken so far. */
    const std::vector<TelemetrySample> &samples() const { return samples_; }

    /** @return the samples as a JSON array (deterministic formatting). */
    std::string toJson() const;

  private:
    /** Record the delta since the previous snapshot ending at @p now. */
    void capture(Core &core, Cycle now);

    struct Snapshot
    {
        Cycle cycle = 0;
        std::uint64_t insts = 0;
        std::uint64_t fetchStallCycles = 0;
        std::uint64_t fetchStallValWaitCycles = 0;
        std::uint64_t validations = 0;
        std::uint64_t valFallbacks = 0;
    };

    Snapshot prev_;
    Cycle interval_;
    Cycle next_;
    std::vector<TelemetrySample> samples_;
};

} // namespace obs
} // namespace sdv

#endif // SDV_OBS_TELEMETRY_HH
