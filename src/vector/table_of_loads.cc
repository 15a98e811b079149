#include "vector/table_of_loads.hh"

#include "common/bitutils.hh"
#include "common/log.hh"
#include "isa/instruction.hh"

namespace sdv {

TableOfLoads::TableOfLoads(unsigned sets, unsigned ways,
                           std::uint8_t spawn_confidence)
    : sets_(sets), ways_(ways), spawnConfidence_(spawn_confidence),
      entries_(size_t(sets) * ways)
{
    sdv_assert(isPowerOf2(sets), "TL sets must be a power of two");
    sdv_assert(ways >= 1, "TL needs at least one way");
}

unsigned
TableOfLoads::setIndex(Addr pc) const
{
    return unsigned((pc / instBytes) & (sets_ - 1));
}

TableOfLoads::Entry *
TableOfLoads::find(Addr pc)
{
    Entry *set = &entries_[size_t(setIndex(pc)) * ways_];
    for (unsigned w = 0; w < ways_; ++w)
        if (set[w].valid && set[w].pc == pc)
            return &set[w];
    return nullptr;
}

const TableOfLoads::Entry *
TableOfLoads::find(Addr pc) const
{
    return const_cast<TableOfLoads *>(this)->find(pc);
}

TableOfLoads::Entry &
TableOfLoads::victimIn(Addr pc)
{
    Entry *set = &entries_[size_t(setIndex(pc)) * ways_];
    Entry *victim = nullptr;
    for (unsigned w = 0; w < ways_ && !victim; ++w)
        if (!set[w].valid)
            victim = &set[w];
    if (!victim) {
        victim = &set[0];
        for (unsigned w = 1; w < ways_; ++w)
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
    }
    return *victim;
}

TlObservation
TableOfLoads::observe(Addr pc, Addr addr)
{
    ++observations_;
    TlObservation obs;
    Entry *e = find(pc);
    if (!e) {
        Entry &v = victimIn(pc);
        v.valid = true;
        v.pc = pc;
        v.lastAddr = addr;
        v.stride = 0;
        v.confidence = 0;
        v.lastUse = ++useClock_;
        return obs;
    }

    obs.hit = true;
    const auto stride = std::int64_t(addr) - std::int64_t(e->lastAddr);
    if (stride == e->stride) {
        if (e->confidence < maxConfidence_)
            ++e->confidence;
    } else {
        e->stride = stride;
        e->confidence = 0;
    }
    e->lastAddr = addr;
    e->lastUse = ++useClock_;

    obs.stride = e->stride;
    if (e->confidence >= spawnConfidence_) {
        obs.spawn = true;
        ++spawns_;
    }
    return obs;
}

void
TableOfLoads::resetConfidence(Addr pc)
{
    if (Entry *e = find(pc))
        e->confidence = 0;
}

TlSnapshot
TableOfLoads::snapshot(Addr pc) const
{
    TlSnapshot snap;
    if (const Entry *e = find(pc)) {
        snap.existed = true;
        snap.lastAddr = e->lastAddr;
        snap.stride = e->stride;
        snap.confidence = e->confidence;
    }
    return snap;
}

void
TableOfLoads::restore(Addr pc, const TlSnapshot &snap)
{
    Entry *e = find(pc);
    if (!snap.existed) {
        // The squashed decode installed the entry; drop it.
        if (e)
            e->valid = false;
        return;
    }
    if (!e) {
        Entry &v = victimIn(pc);
        v.valid = true;
        v.pc = pc;
        v.lastUse = ++useClock_;
        e = &v;
    }
    e->lastAddr = snap.lastAddr;
    e->stride = snap.stride;
    e->confidence = snap.confidence;
}

} // namespace sdv
