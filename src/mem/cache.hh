/**
 * @file
 * Set-associative cache tag array with LRU replacement and write-back /
 * write-allocate policy. The model tracks tags and dirty bits only;
 * data values live in the functional memory image (the timing model
 * never needs the bytes themselves).
 */

#ifndef SDV_MEM_CACHE_HH
#define SDV_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace sdv {

/** Statistics kept by each cache instance. */
struct CacheStats
{
    std::uint64_t readAccesses = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeAccesses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t writebacks = 0;

    /** @return total accesses. */
    std::uint64_t
    accesses() const
    {
        return readAccesses + writeAccesses;
    }

    /** @return total misses. */
    std::uint64_t misses() const { return readMisses + writeMisses; }

    /** @return overall miss ratio (0 when no accesses). */
    double
    missRatio() const
    {
        return accesses() == 0 ? 0.0
                               : double(misses()) / double(accesses());
    }
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;           ///< tag matched
    bool writeback = false;     ///< a dirty victim was evicted
    Addr writebackAddr = 0;     ///< line address of the victim
};

/** Tag-only set-associative cache. */
class Cache
{
  public:
    /**
     * @param name for diagnostics
     * @param size_bytes total capacity
     * @param assoc associativity
     * @param line_bytes line size
     */
    Cache(std::string name, std::uint64_t size_bytes, unsigned assoc,
          unsigned line_bytes);

    /**
     * Access the line containing @p addr; on a miss the line is filled
     * (allocate-on-miss for both reads and writes) and the LRU victim
     * evicted.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** @return true when the line containing @p addr is present. */
    bool probe(Addr addr) const;

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    /** @return line size in bytes. */
    unsigned lineBytes() const { return lineBytes_; }

    /** @return line-aligned address of @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~Addr(lineBytes_ - 1); }

    /** @return number of sets. */
    unsigned numSets() const { return sets_; }

    /** @return associativity. */
    unsigned assoc() const { return assoc_; }

    /** @return accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /** Zero the statistics, keeping the tag contents (checkpoint
     *  measurement rebase). */
    void resetStats() { stats_ = CacheStats{}; }

    /** Serialize tags / dirty bits / LRU state (not statistics). */
    void saveState(Serializer &ser) const;

    /**
     * Restore tag state from a checkpoint image.
     * @retval false when the image was made by a cache of different
     * geometry (sets / associativity / line size)
     */
    bool loadState(Deserializer &des);

    /** @return the cache's diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned setIndex(Addr addr) const;

    std::string name_;
    std::vector<Line> lines_; ///< sets * assoc, way-major within set
    unsigned sets_;
    unsigned assoc_;
    unsigned lineBytes_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

} // namespace sdv

#endif // SDV_MEM_CACHE_HH
