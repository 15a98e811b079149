/**
 * @file
 * Miss status holding registers: bound the number of outstanding cache
 * misses (16 in the paper's configuration) and merge requests to the
 * same line into one outstanding fill.
 */

#ifndef SDV_MEM_MSHR_HH
#define SDV_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace sdv {

namespace obs {
class TraceRecorder;
} // namespace obs

/** The MSHR file of one cache. */
class MshrFile
{
  public:
    /** @param entries maximum outstanding misses */
    explicit MshrFile(unsigned entries = 16);

    /**
     * Try to track a miss for @p line_addr completing at @p ready.
     *
     * A request to a line that already has an outstanding fill merges
     * with it and succeeds without consuming a new entry; the merged
     * request completes at the *earlier* of the two ready times (the
     * fill was already in flight).
     *
     * @param line_addr line-aligned miss address
     * @param ready cycle at which the new fill would complete
     * @param now current cycle (used to retire finished entries)
     * @param[out] completion actual completion cycle for this request
     * @retval false when the file is full (the access must retry)
     */
    bool allocate(Addr line_addr, Cycle ready, Cycle now, Cycle &completion);

    /**
     * @return true when a fill for @p line_addr is still outstanding at
     * @p now.
     */
    bool outstanding(Addr line_addr, Cycle now) const;

    /** @return number of entries busy at cycle @p now. */
    unsigned busyCount(Cycle now) const;

    /** @return capacity. */
    unsigned capacity() const { return unsigned(entries_.size()); }

    /** @return total allocations (excluding merges). */
    std::uint64_t allocations() const { return allocations_; }

    /** @return requests merged into an existing entry. */
    std::uint64_t merges() const { return merges_; }

    /** @return requests rejected because the file was full. */
    std::uint64_t fullStalls() const { return fullStalls_; }

    /** Attach a flight recorder for alloc/retry events (null
     *  detaches; pure observation). */
    void setRecorder(obs::TraceRecorder *rec) { recorder_ = rec; }

    /** Zero the statistics, keeping any tracked fills. */
    void
    resetStats()
    {
        allocations_ = 0;
        merges_ = 0;
        fullStalls_ = 0;
    }

    /** Drop all tracked fills, keeping the statistics. Used at the
     *  checkpoint measurement boundary, where every fill has already
     *  landed: an expired entry and a free one behave identically, so
     *  clearing makes the state canonical before the clock rebases. */
    void
    clearEntries()
    {
        for (auto &e : entries_)
            e = Entry{};
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr lineAddr = 0;
        Cycle ready = 0;
    };

    std::vector<Entry> entries_;
    std::uint64_t allocations_ = 0;
    std::uint64_t merges_ = 0;
    std::uint64_t fullStalls_ = 0;
    obs::TraceRecorder *recorder_ = nullptr;
};

} // namespace sdv

#endif // SDV_MEM_MSHR_HH
