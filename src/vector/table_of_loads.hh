/**
 * @file
 * The Table of Loads (TL) of Section 3.2 / Figure 4: a 4-way
 * set-associative table indexed by load PC holding the last address,
 * the current stride and a confidence counter. When the confidence
 * reaches 2 a vectorized instance of the load is spawned.
 */

#ifndef SDV_VECTOR_TABLE_OF_LOADS_HH
#define SDV_VECTOR_TABLE_OF_LOADS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace sdv {

/** Outcome of observing one dynamic load at decode. */
struct TlObservation
{
    bool hit = false;        ///< the PC was present
    bool spawn = false;      ///< confidence threshold reached
    std::int64_t stride = 0; ///< current stride (valid when hit)
};

/** Snapshot of one TL entry, used for squash undo. */
struct TlSnapshot
{
    bool existed = false;
    Addr lastAddr = 0;
    std::int64_t stride = 0;
    std::uint8_t confidence = 0;
};

/** The Table of Loads. */
class TableOfLoads
{
  public:
    /**
     * @param sets number of sets (512 in the paper)
     * @param ways associativity (4 in the paper)
     * @param spawn_confidence confidence needed to vectorize (2)
     */
    explicit TableOfLoads(unsigned sets = 512, unsigned ways = 4,
                          std::uint8_t spawn_confidence = 2);

    /**
     * Observe a dynamic instance of the load at @p pc accessing
     * @p addr: update last address / stride / confidence per the paper
     * and report whether a vectorized instance should spawn.
     */
    TlObservation observe(Addr pc, Addr addr);

    /** Reset the confidence of @p pc to zero (misspeculation). */
    void resetConfidence(Addr pc);

    /** @return the current entry state for @p pc (for undo). */
    TlSnapshot snapshot(Addr pc) const;

    /** Restore an entry to a snapshot taken before a squashed decode. */
    void restore(Addr pc, const TlSnapshot &snap);

    /** @return entry count (sets * ways). */
    unsigned capacity() const { return sets_ * ways_; }

    /** @return observations made. */
    std::uint64_t observations() const { return observations_; }

    /** @return spawn recommendations issued. */
    std::uint64_t spawns() const { return spawns_; }

    /** Zero the observation/spawn counters, keeping the table. */
    void
    resetStats()
    {
        observations_ = 0;
        spawns_ = 0;
    }

    /** Serialize entries + LRU clock (the checkpointable warm stride /
     *  confidence state; counters are excluded). */
    void
    saveState(Serializer &ser) const
    {
        ser.u32(sets_);
        ser.u32(ways_);
        ser.u8(spawnConfidence_);
        ser.u64(useClock_);
        for (const Entry &e : entries_) {
            ser.b(e.valid);
            ser.u64(e.pc);
            ser.u64(e.lastAddr);
            ser.i64(e.stride);
            ser.u8(e.confidence);
            ser.u64(e.lastUse);
        }
    }

    /** Restore TL state; @retval false on geometry mismatch. */
    bool
    loadState(Deserializer &des)
    {
        if (des.u32() != sets_ || des.u32() != ways_ ||
            des.u8() != spawnConfidence_) {
            des.fail();
            return false;
        }
        useClock_ = des.u64();
        for (Entry &e : entries_) {
            e.valid = des.b();
            e.pc = des.u64();
            e.lastAddr = des.u64();
            e.stride = des.i64();
            e.confidence = des.u8();
            e.lastUse = des.u64();
        }
        return des.ok();
    }

    /** Storage cost in bytes (24 bytes per entry per the paper). */
    std::uint64_t
    storageBytes() const
    {
        return std::uint64_t(capacity()) * 24;
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned setIndex(Addr pc) const;
    Entry *find(Addr pc);
    const Entry *find(Addr pc) const;
    Entry &victimIn(Addr pc);

    unsigned sets_;
    unsigned ways_;
    std::uint8_t spawnConfidence_;
    std::uint8_t maxConfidence_ = 3; ///< 2-bit saturating counter
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t observations_ = 0;
    std::uint64_t spawns_ = 0;
};

} // namespace sdv

#endif // SDV_VECTOR_TABLE_OF_LOADS_HH
