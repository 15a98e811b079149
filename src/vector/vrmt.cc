#include "vector/vrmt.hh"

#include "common/bitutils.hh"
#include "common/log.hh"
#include "isa/instruction.hh"

namespace sdv {

Vrmt::Vrmt(unsigned sets, unsigned ways)
    : sets_(sets), ways_(ways), entries_(size_t(sets) * ways)
{
    sdv_assert(isPowerOf2(sets), "VRMT sets must be a power of two");
    sdv_assert(ways >= 1, "VRMT needs at least one way");
}

unsigned
Vrmt::setIndex(Addr pc) const
{
    return unsigned((pc / instBytes) & (sets_ - 1));
}

VrmtEntry *
Vrmt::lookup(Addr pc)
{
    VrmtEntry *set = &entries_[size_t(setIndex(pc)) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].pc == pc) {
            set[w].lastUse = ++useClock_;
            return &set[w];
        }
    }
    return nullptr;
}

const VrmtEntry *
Vrmt::lookup(Addr pc) const
{
    return const_cast<Vrmt *>(this)->lookup(pc);
}

VrmtEntry &
Vrmt::install(const VrmtEntry &entry)
{
    sdv_assert(entry.valid, "installing invalid VRMT entry");
    if (VrmtEntry *existing = lookup(entry.pc)) {
        const std::uint64_t use = existing->lastUse;
        *existing = entry;
        existing->lastUse = use;
        return *existing;
    }
    VrmtEntry *set = &entries_[size_t(setIndex(entry.pc)) * ways_];
    VrmtEntry *victim = nullptr;
    for (unsigned w = 0; w < ways_ && !victim; ++w)
        if (!set[w].valid)
            victim = &set[w];
    if (!victim) {
        victim = &set[0];
        for (unsigned w = 1; w < ways_; ++w)
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
    }
    *victim = entry;
    victim->lastUse = ++useClock_;
    return *victim;
}

void
Vrmt::invalidate(Addr pc)
{
    if (VrmtEntry *e = lookup(pc))
        e->valid = false;
}

unsigned
Vrmt::invalidateByVreg(VecRegRef ref, std::vector<Addr> *load_pcs,
                       std::vector<VecRegRef> *successors)
{
    unsigned n = 0;
    for (VrmtEntry &e : entries_) {
        if (!e.valid || !(e.vreg == ref))
            continue;
        e.valid = false;
        if (load_pcs && e.isLoad)
            load_pcs->push_back(e.pc);
        if (successors && e.hasNext)
            successors->push_back(e.nextVreg);
        ++n;
    }
    return n;
}

void
Vrmt::invalidateAll()
{
    for (VrmtEntry &e : entries_)
        e.valid = false;
}

unsigned
Vrmt::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        if (e.valid)
            ++n;
    return n;
}

} // namespace sdv
