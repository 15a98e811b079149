#include "core/lsq.hh"

#include "common/log.hh"

namespace sdv {

LoadStoreQueue::LoadStoreQueue(unsigned capacity) : capacity_(capacity)
{
    sdv_assert(capacity >= 2, "LSQ too small");
}

void
LoadStoreQueue::insert(DynInst *inst)
{
    sdv_assert(!full(), "LSQ overflow");
    ++size_;
    if (inst->isStore()) {
        sdv_assert(stores_.empty() || stores_.back()->seq < inst->seq,
                   "LSQ inserts must be in program order");
        stores_.push_back(inst);
    }
}

void
LoadStoreQueue::erase(const DynInst *inst)
{
    sdv_assert(size_ > 0, "LSQ erase from an empty queue");
    --size_;
    if (inst->isStore()) {
        sdv_assert(!stores_.empty() && stores_.front() == inst,
                   "LSQ store commits out of program order");
        stores_.pop_front();
    }
}

void
LoadStoreQueue::clear()
{
    size_ = 0;
    stores_.clear();
}

LoadCheck
LoadStoreQueue::checkLoad(const DynInst *ld) const
{
    if (stores_.empty())
        return LoadCheck::Ready; // no store in flight at all

    const Addr lo = ld->rec.addr;
    const Addr hi = lo + ld->rec.size - 1;

    // Scan older stores youngest-first, tracking which load bytes are
    // still unclaimed: for each byte the nearest older store that
    // writes it decides. Byte i of the load is bit i of the mask
    // (loads are at most 8 bytes).
    sdv_assert(ld->rec.size >= 1 && ld->rec.size <= 8,
               "load size out of range");
    const std::uint16_t full =
        std::uint16_t((1u << ld->rec.size) - 1u);
    std::uint16_t unclaimed = full;  ///< bytes no store has supplied yet
    std::uint16_t forwarded = 0;     ///< bytes a completed store supplies

    for (auto it = stores_.rbegin(); it != stores_.rend(); ++it) {
        const DynInst *e = *it;
        if (e->seq >= ld->seq)
            continue; // younger than the load

        const Addr slo = e->rec.addr;
        const Addr shi = slo + e->rec.size - 1;
        if (hi < slo || lo > shi)
            continue; // disjoint
        const Addr olo = slo > lo ? slo : lo;
        const Addr ohi = shi < hi ? shi : hi;
        const std::uint16_t overlap = std::uint16_t(
            ((1u << (ohi - lo + 1)) - 1u) & ~((1u << (olo - lo)) - 1u));
        const std::uint16_t fresh = std::uint16_t(overlap & unclaimed);
        if (fresh == 0)
            continue; // every overlapped byte comes from a younger store
        if (!e->completed)
            return LoadCheck::Stall; // needs bytes of an unresolved store
        unclaimed = std::uint16_t(unclaimed & ~fresh);
        forwarded = std::uint16_t(forwarded | fresh);
        if (unclaimed == 0)
            return LoadCheck::Forward; // in-flight stores cover the load
    }

    // Some bytes are only in memory. A load partly fed by pending
    // stores and partly by the cache cannot forward; it waits for the
    // stores to drain at commit.
    return forwarded == 0 ? LoadCheck::Ready : LoadCheck::Stall;
}

} // namespace sdv
