/**
 * @file
 * Flight recorder: a per-simulator buffer of typed binary events
 * covering the SDV chain lifecycle (TL promotion, chain spawn/extend,
 * validation issue/hit/miss, vreg alloc/release with fate, quiesce,
 * fault inject/detect, demote/re-enable) plus core events (squash,
 * I-cache refill, MSHR alloc/retry). Events are recorded as compact
 * PODs and serialized on demand to Chrome/Perfetto trace-event JSON.
 *
 * Each simulator owns at most one recorder and records from its own
 * thread, so recording needs no locks; sweep workers each attach a
 * private recorder and the driver serializes them in plan order.
 */

#ifndef SDV_OBS_TRACE_HH
#define SDV_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"

namespace sdv {
namespace obs {

/** Typed event identifiers; eventCategory() maps each to a category. */
enum class EventKind : std::uint8_t {
    TlPromote,      ///< Table-of-Loads entry crossed the spawn threshold
    ChainSpawn,     ///< new vector chain installed (load or arith)
    ChainExtend,    ///< successor speculation extended an existing chain
    ChainKill,      ///< chain torn down (replacement, misspeculation)
    ValIssue,       ///< load/arith decoded into a validation
    ValHit,         ///< validation committed against a ready element
    ValMiss,        ///< validation fell back or caught a misspeculation
    VregAlloc,      ///< physical vector register allocated
    VregRelease,    ///< vector register released (fate in args)
    Quiesce,        ///< speculative vector state flushed at a boundary
    FaultInject,    ///< fault campaign corrupted a VRMT install
    FaultDetect,    ///< injected fault caught by validation/VRMT check
    ChainDemote,    ///< faulting chain demoted to scalar issue
    ChainReenable,  ///< demoted chain re-enabled after writer commit
    Squash,         ///< full pipeline squash
    IcacheRefill,   ///< instruction fetch missed L1I
    MshrAlloc,      ///< fresh L1D MSHR allocated for a miss
    MshrRetry,      ///< access retried because the MSHR file was full
    NumKinds,
};

/** Category bits for --trace-filter. */
constexpr unsigned CatSdv = 1u;  ///< SDV engine / vector events
constexpr unsigned CatMem = 2u;  ///< memory hierarchy events
constexpr unsigned CatCore = 4u; ///< scalar core events
constexpr unsigned CatAll = CatSdv | CatMem | CatCore;

/** @return stable snake_case name used in serialized traces. */
const char *eventName(EventKind kind);

/** @return the category bit of @p kind (one of CatSdv/CatMem/CatCore). */
unsigned eventCategory(EventKind kind);

/** @return "sdv", "mem" or "core" for a single category bit. */
const char *categoryName(unsigned cat);

/**
 * Parse a comma-separated category list ("sdv,mem,core") into a mask.
 * @retval false on an unknown category name.
 */
bool parseCategoryMask(const std::string &spec, unsigned &mask);

/** One recorded event; meaning of pc/arg0/arg1 depends on the kind. */
struct TraceEvent
{
    Cycle cycle = 0;
    Addr pc = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    EventKind kind = EventKind::NumKinds;
};

/**
 * Append/ring buffer of TraceEvents with category filtering applied at
 * record time. A ring capacity of 0 means unbounded append mode;
 * otherwise the oldest events are evicted once the buffer is full
 * (--trace-last N).
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /**
     * @param category_mask OR of CatSdv/CatMem/CatCore
     * @param ring_capacity max retained events, 0 for unbounded
     */
    void configure(unsigned category_mask, std::size_t ring_capacity);

    /** Update the timestamp applied to subsequent record() calls. */
    void setCycle(Cycle now) { now_ = now; }

    /** @return the current record timestamp. */
    Cycle cycle() const { return now_; }

    /** Record one event at the current cycle (filtered by category). */
    void record(EventKind kind, Addr pc = 0, std::uint64_t arg0 = 0,
                std::uint64_t arg1 = 0);

    /** @return number of events currently retained. */
    std::size_t size() const { return events_.size(); }

    /** @return events that passed the filter since configure(). */
    std::uint64_t recorded() const { return recorded_; }

    /** @return events evicted by the ring bound. */
    std::uint64_t dropped() const { return dropped_; }

    /** @return active category mask. */
    unsigned categoryMask() const { return mask_; }

    /** @return the ring capacity (0 when in append mode). */
    std::size_t ringCapacity() const { return ringCap_; }

    /**
     * Chain-lifetime histogram, sampled at every VregRelease with the
     * same 4x-log buckets as VecRegFateStats::lifetimeHist: the bucket
     * index b covers ages in [2^(2b+1), 2^(2b+3)) cycles, b=7 the rest.
     */
    const Histogram &chainLifetimeHist() const { return chainHist_; }

    /** Drop all retained events and counters (keeps configuration). */
    void clear();

    /** Visit retained events in chronological order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = events_.size();
        for (std::size_t i = 0; i < n; ++i)
            fn(events_[(head_ + i) % (n ? n : 1)]);
    }

    /**
     * Append this recorder's events as comma-separated Chrome
     * trace-event objects (no enclosing brackets). @p pid becomes the
     * trace "pid" so multiple runs can share one file.
     */
    void appendEventsJson(std::string &out, unsigned pid) const;

  private:
    std::vector<TraceEvent> events_;
    Histogram chainHist_{8};
    std::size_t ringCap_ = 0;
    std::size_t head_ = 0;
    unsigned mask_ = CatAll;
    Cycle now_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

/** A run's worth of events plus the label shown in the trace viewer. */
struct TraceSource
{
    const TraceRecorder *recorder = nullptr;
    std::string label;
};

/**
 * Serialize one or more recorders into a complete Chrome/Perfetto
 * trace-event JSON document. Source i is emitted as pid i with a
 * process_name metadata record, so the output is deterministic for a
 * fixed source order regardless of how the runs were scheduled.
 */
std::string traceFileJson(const std::vector<TraceSource> &sources);

/** Write traceFileJson() to @p path. @return false when the file
 *  could not be written in full. */
bool writeTraceFile(const std::string &path,
                    const std::vector<TraceSource> &sources);

} // namespace obs
} // namespace sdv

#endif // SDV_OBS_TRACE_HH
