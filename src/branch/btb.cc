#include "branch/btb.hh"

#include "common/bitutils.hh"
#include "common/log.hh"
#include "isa/instruction.hh"

namespace sdv {

Btb::Btb(unsigned sets, unsigned ways)
    : entries_(size_t(sets) * ways), sets_(sets), ways_(ways)
{
    sdv_assert(isPowerOf2(sets), "BTB sets must be a power of two");
    sdv_assert(ways >= 1, "BTB needs at least one way");
}

unsigned
Btb::setIndex(Addr pc) const
{
    return unsigned((pc / instBytes) & (sets_ - 1));
}

bool
Btb::lookup(Addr pc, Addr &target)
{
    ++lookups_;
    Entry *set = &entries_[size_t(setIndex(pc)) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == pc) {
            set[w].lastUse = ++useClock_;
            target = set[w].target;
            ++hits_;
            return true;
        }
    }
    return false;
}

void
Btb::update(Addr pc, Addr target)
{
    Entry *set = &entries_[size_t(setIndex(pc)) * ways_];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == pc) {
            set[w].target = target;
            set[w].lastUse = ++useClock_;
            return;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    victim->valid = true;
    victim->tag = pc;
    victim->target = target;
    victim->lastUse = ++useClock_;
}

} // namespace sdv
