/**
 * @file
 * Sparse byte-addressable memory backing store. Pages are materialized
 * on first touch and read as zero before any write, which also makes
 * speculative vector-load prefetches to arbitrary addresses safe.
 *
 * Every functional-execute, oracle step and verify-pass byte funnels
 * through here, so the common case — repeated access to the page
 * touched last — bypasses the hash map via an MRU page cache, and
 * accesses that straddle a page boundary split into at most two page
 * lookups instead of one per byte.
 */

#ifndef SDV_ARCH_MEMORY_HH
#define SDV_ARCH_MEMORY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace sdv {

/** Page-granular sparse memory. */
class SparseMemory
{
  public:
    /** Bytes per backing page. */
    static constexpr unsigned pageBytes = 4096;

    SparseMemory() = default;

    // The MRU cache points into this object's own page map, so it must
    // not travel across copies/moves (a copied cache would alias the
    // source's pages; a moved-from cache would alias the target's).
    SparseMemory(const SparseMemory &o) : pages_(o.pages_) {}
    SparseMemory(SparseMemory &&o) noexcept
        : pages_(std::move(o.pages_))
    {
        o.mruAddr_ = ~Addr(0);
        o.mruPage_ = nullptr;
    }
    SparseMemory &
    operator=(const SparseMemory &o)
    {
        pages_ = o.pages_;
        mruAddr_ = ~Addr(0);
        mruPage_ = nullptr;
        return *this;
    }
    SparseMemory &
    operator=(SparseMemory &&o) noexcept
    {
        pages_ = std::move(o.pages_);
        mruAddr_ = ~Addr(0);
        mruPage_ = nullptr;
        o.mruAddr_ = ~Addr(0);
        o.mruPage_ = nullptr;
        return *this;
    }

    /** Read @p size bytes (1, 2, 4 or 8) little-endian. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write the low @p size bytes of @p value little-endian. */
    void write(Addr addr, std::uint64_t value, unsigned size);

    /** Read a 64-bit word. */
    std::uint64_t read64(Addr addr) const { return read(addr, 8); }

    /** Write a 64-bit word. */
    void write64(Addr addr, std::uint64_t v) { write(addr, v, 8); }

    /** Read a 32-bit word. */
    std::uint32_t
    read32(Addr addr) const
    {
        return std::uint32_t(read(addr, 4));
    }

    /** Write a 32-bit word. */
    void write32(Addr addr, std::uint32_t v) { write(addr, v, 4); }

    /** Bulk copy-out (untouched bytes read as zero). */
    void readBytes(Addr addr, std::uint8_t *out, size_t len) const;

    /** Bulk copy-in. */
    void writeBytes(Addr addr, const std::uint8_t *data, size_t len);

    /** @return number of materialized pages. */
    size_t numPages() const { return pages_.size(); }

    /** @return the addresses of the materialized pages, ascending. */
    std::vector<Addr> pageAddrs() const;

    /**
     * Serialize the pages that differ from @p base or are missing from
     * it, address-sorted so the byte image is independent of hash-map
     * iteration order: a delta image over @p base (an empty base saves
     * every page). Every page of @p base must be materialized here too,
     * so base plus delta has exactly this memory's page set.
     */
    void saveState(Serializer &ser, const SparseMemory &base) const;

    /** Write a saved image's pages over the current contents, which
     *  must be the base the image was saved against. */
    void loadState(Deserializer &des);

    /**
     * Compare the union of both memories' touched pages.
     * @retval true when every byte matches (untouched reads as zero).
     */
    bool equals(const SparseMemory &other) const;

    /** Drop all contents. */
    void
    clear()
    {
        pages_.clear();
        mruAddr_ = ~Addr(0);
        mruPage_ = nullptr;
    }

  private:
    using Page = std::vector<std::uint8_t>;

    const Page *findPage(Addr page_addr) const;
    Page &getPage(Addr page_addr);

    std::unordered_map<Addr, Page> pages_;

    /**
     * MRU page cache shared by the const and mutable paths. Entries of
     * an unordered_map are node-based, so the pointer survives rehash;
     * only clear() invalidates it. Never caches "page absent": a write
     * may materialize the page behind the cache's back.
     */
    mutable Addr mruAddr_ = ~Addr(0);
    mutable Page *mruPage_ = nullptr;
};

} // namespace sdv

#endif // SDV_ARCH_MEMORY_HH
