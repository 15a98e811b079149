/**
 * @file
 * Branch target buffer: caches the most recent target of control
 * instructions so the front end can redirect on a predicted-taken
 * branch without waiting for decode.
 */

#ifndef SDV_BRANCH_BTB_HH
#define SDV_BRANCH_BTB_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace sdv {

/** Set-associative branch target buffer with per-set LRU. */
class Btb
{
  public:
    /**
     * @param sets number of sets (power of two)
     * @param ways associativity
     */
    explicit Btb(unsigned sets = 512, unsigned ways = 4);

    /**
     * Look up the target of the control instruction at @p pc.
     * @retval true and sets @p target on a hit.
     */
    bool lookup(Addr pc, Addr &target);

    /** Install/refresh the target for @p pc. */
    void update(Addr pc, Addr target);

    /** @return hit count since construction or resetStats(). */
    std::uint64_t hits() const { return hits_; }

    /** @return lookup count since construction or resetStats(). */
    std::uint64_t lookups() const { return lookups_; }

    /** Zero the hit/lookup counters, keeping the entries. */
    void
    resetStats()
    {
        hits_ = 0;
        lookups_ = 0;
    }

    /** Serialize entries + LRU clock (not statistics). */
    void
    saveState(Serializer &ser) const
    {
        ser.u32(sets_);
        ser.u32(ways_);
        ser.u64(useClock_);
        for (const Entry &e : entries_) {
            ser.b(e.valid);
            ser.u64(e.tag);
            ser.u64(e.target);
            ser.u64(e.lastUse);
        }
    }

    /** Restore BTB state; @retval false on geometry mismatch. */
    bool
    loadState(Deserializer &des)
    {
        if (des.u32() != sets_ || des.u32() != ways_) {
            des.fail();
            return false;
        }
        useClock_ = des.u64();
        for (Entry &e : entries_) {
            e.valid = des.b();
            e.tag = des.u64();
            e.target = des.u64();
            e.lastUse = des.u64();
        }
        return des.ok();
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned setIndex(Addr pc) const;

    std::vector<Entry> entries_; ///< sets * ways, way-major within set
    unsigned sets_;
    unsigned ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t lookups_ = 0;
};

} // namespace sdv

#endif // SDV_BRANCH_BTB_HH
