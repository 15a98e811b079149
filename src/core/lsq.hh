/**
 * @file
 * Load/store queue with store-to-load forwarding. Addresses are known
 * at dispatch (oracle-at-decode convention), so loads may issue as soon
 * as no older overlapping store blocks them — the paper's "loads may
 * execute when prior store addresses are known" policy.
 */

#ifndef SDV_CORE_LSQ_HH
#define SDV_CORE_LSQ_HH

#include <cstdint>
#include <deque>

#include "core/dyn_inst.hh"

namespace sdv {

/** Disambiguation verdict for a ready-to-issue load. */
enum class LoadCheck : std::uint8_t
{
    Ready,   ///< no conflict; access the cache
    Forward, ///< a completed older store fully covers it; forward
    Stall,   ///< an older overlapping store is unresolved; wait
};

/** The unified load/store queue. */
class LoadStoreQueue
{
  public:
    /** @param capacity total entries (32 / 64 in Table 1) */
    explicit LoadStoreQueue(unsigned capacity);

    /** @return true when no entry is free. */
    bool full() const { return size_ >= capacity_; }

    /** @return current occupancy. */
    size_t size() const { return size_; }

    /** Insert a memory instruction at dispatch (program order). */
    void insert(DynInst *inst);

    /** Remove the entry of @p inst at its commit. Memory instructions
     *  commit in program order, so a store is the oldest store. */
    void erase(const DynInst *inst);

    /** Remove every entry (squash). */
    void clear();

    /**
     * Check whether the load @p ld may issue.
     * Byte-range semantics: every load byte written by an older
     * in-flight store must come from the *nearest* such store. The
     * load forwards when all its bytes are supplied by completed older
     * stores (one store or the combined coverage of several); it
     * stalls when any needed byte belongs to a store that has not
     * completed, or when pending stores supply only part of the load
     * (a cache/forward mix is not modelled); otherwise it is Ready.
     */
    LoadCheck checkLoad(const DynInst *ld) const;

    /** @return forwarding events observed. */
    std::uint64_t forwards() const { return forwards_; }

    /** Count one forwarding event (issue logic). */
    void noteForward() { ++forwards_; }

    /** @return stalls due to unresolved older stores. */
    std::uint64_t conflictStalls() const { return conflictStalls_; }

    /** Count one conflict stall observation. */
    void noteConflictStall() { ++conflictStalls_; }

    /** Zero the forwarding/stall counters. */
    void
    resetStats()
    {
        forwards_ = 0;
        conflictStalls_ = 0;
    }

  private:
    unsigned capacity_;
    size_t size_ = 0; ///< loads and stores in flight
    /** The store entries, in program order: checkLoad reads only
     *  stores, so the loads are just counted. */
    std::deque<DynInst *> stores_;
    std::uint64_t forwards_ = 0;
    std::uint64_t conflictStalls_ = 0;
};

} // namespace sdv

#endif // SDV_CORE_LSQ_HH
