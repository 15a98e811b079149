/**
 * @file
 * L1 data cache port arbitration, including the paper's wide bus
 * (Section 3.7): a wide port transfers a whole cache line per access
 * and serves up to four pending loads whose addresses fall in that
 * line with the single access. The module also keeps the per-access
 * useful-word ledger that regenerates Figure 13.
 */

#ifndef SDV_MEM_PORT_HH
#define SDV_MEM_PORT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace sdv {

/** Identifier of a speculative vector-element load, for deferred
 *  useful-word accounting: the ledger slot of its access + 1 (see
 *  DCachePorts::Grant::elemLoadId). 0 means "none". */
using ElemLoadId = std::uint64_t;

/** Aggregate port / wide-bus statistics. */
struct PortStats
{
    std::uint64_t busyPortCycles = 0;  ///< one per claimed port per cycle
    std::uint64_t readAccesses = 0;    ///< load line/word accesses
    std::uint64_t writeAccesses = 0;   ///< store accesses
    std::uint64_t wordsServed = 0;     ///< total load words served

    /** @return port occupancy in [0,1] of @p num_ports ports over
     *  @p cycles cycles (the core's clock, CoreStats::cycles). */
    double
    occupancy(unsigned num_ports, std::uint64_t cycles) const
    {
        const double cap = double(cycles) * num_ports;
        return cap == 0.0 ? 0.0 : double(busyPortCycles) / cap;
    }
};

/** Figure 13 output: read accesses bucketed by useful word count. */
struct WideBusBreakdown
{
    std::uint64_t usefulWords[5] = {0, 0, 0, 0, 0}; ///< index = words 0..4
    std::uint64_t totalReads = 0;

    /** @return fraction of read accesses with @p n useful words. */
    double
    fraction(unsigned n) const
    {
        return totalReads == 0
                   ? 0.0
                   : double(usefulWords[n]) / double(totalReads);
    }

    /** @return fraction of reads that served no architecturally used
     *  word at all (the paper's "Unused" series). */
    double unusedFraction() const { return fraction(0); }
};

/**
 * Per-cycle arbitration over the configured number of L1D ports, scalar
 * or wide.
 */
class DCachePorts
{
  public:
    /**
     * @param num_ports number of L1D ports (1, 2 or 4 in the paper)
     * @param wide true: each port moves a full line per access
     * @param line_bytes L1D line size
     * @param word_bytes element size used for ride-along slots (8)
     */
    DCachePorts(unsigned num_ports, bool wide, unsigned line_bytes,
                unsigned word_bytes = 8);

    /** Start a new cycle; forget per-cycle access state. */
    void beginCycle();

    /** Result of requesting a word through the port network. */
    struct Grant
    {
        bool ok = false;       ///< the word is served this cycle
        bool newAccess = false; ///< a fresh port/access was claimed
        /** Ledger slot id (valid when ok for loads; stores make no
         *  ledger record — Figure 13 only buckets reads). Names the
         *  access only within the granting cycle. */
        std::int32_t accessId = -1;

        /** @return the id under which a speculative element load of
         *  this grant resolves (resolveElem), 0 when nothing was
         *  granted. The slot stays the record's until every
         *  speculative element on it has resolved. */
        ElemLoadId elemLoadId() const { return ElemLoadId(accessId + 1); }
    };

    /**
     * Request a load of the word at @p addr.
     *
     * Wide ports first try to ride along on an access already made to
     * the same line this cycle (up to four served loads per access per
     * the paper); otherwise a free port is claimed.
     *
     * @param addr word address
     * @param speculative true for a speculative vector-element load;
     *        its usefulness must be resolved exactly once, later, via
     *        resolveElem(grant.elemLoadId(), ...)
     */
    Grant requestLoadWord(Addr addr, bool speculative = false);

    /** Request a store access (one port, no ride-along). */
    Grant requestStoreWord(Addr addr);

    /** @return true when configured with wide ports. */
    bool wide() const { return wide_; }

    /** @return configured port count. */
    unsigned numPorts() const { return numPorts_; }

    /**
     * Mark one speculative element load of access @p id as
     * architecturally useful (validated) or not; called when element
     * fates are known. The access must still have an unresolved
     * speculative element.
     */
    void resolveElem(ElemLoadId id, bool used);

    /** @return accumulated port statistics. */
    const PortStats &stats() const { return stats_; }

    /** Zero the statistics and the folded Figure-13 histogram. Must
     *  only run with no live ledger records (quiesced pipeline). */
    void
    resetStats()
    {
        stats_ = PortStats{};
        folded_ = WideBusBreakdown{};
    }

    /** @return the Figure 13 breakdown: folded records plus every
     *  still-unresolved in-flight record (whose unresolved speculative
     *  elements count as unused). */
    WideBusBreakdown wideBusBreakdown() const;

    /** @return ledger slots currently holding an unresolved record
     *  (bounded by in-flight speculative accesses, not total traffic). */
    std::size_t ledgerLiveRecords() const;

    /** @return ledger slot pool high-water mark. */
    std::size_t ledgerSlotHighWater() const { return ledger_.size(); }

  private:
    /**
     * Per-access useful-word record. Records live in a recycled slot
     * pool: a record stays only while its access can still gain words
     * (the access's cycle) or has speculative element loads awaiting
     * resolution; after that it folds into the running Figure 13
     * histogram and the slot is reused, so ledger memory is bounded by
     * in-flight accesses rather than total accesses.
     */
    struct AccessRecord
    {
        Addr lineAddr = 0;
        bool inUse = false;             ///< slot holds a live record
        bool open = false;              ///< access's cycle still running
        std::uint32_t demandWords = 0;  ///< words for committed-path loads
        std::uint32_t specWords = 0;    ///< speculative element words
        std::uint32_t specUsed = 0;     ///< ... of which later validated
        std::uint32_t specPending = 0;  ///< ... not yet resolved
        std::uint32_t servedLoads = 0;  ///< loads served by this access
    };

    Addr lineOf(Addr addr) const { return addr & ~Addr(lineBytes_ - 1); }

    /** Claim a pooled ledger slot for a fresh read access. */
    std::int32_t allocRecord(Addr line);

    /** Fold a fully-resolved record into the histogram, free its slot. */
    void foldRecord(std::int32_t id);

    unsigned numPorts_;
    bool wide_;
    unsigned lineBytes_;
    unsigned maxServedPerAccess_;

    unsigned usedThisCycle_ = 0;
    /** Read accesses made this cycle as (line address, ledger slot),
     *  oldest first (wide merge; the newest access to a line wins).
     *  At most one per port. */
    std::vector<std::pair<Addr, std::int32_t>> cycleReads_;
    /** Ledger slots of the accesses made this cycle (closed at the
     *  next beginCycle). */
    std::vector<std::int32_t> openRecords_;

    std::vector<AccessRecord> ledger_; ///< slot pool (recycled)
    std::vector<std::int32_t> freeSlots_;
    WideBusBreakdown folded_; ///< resolved accesses, already bucketed
    PortStats stats_;
};

} // namespace sdv

#endif // SDV_MEM_PORT_HH
