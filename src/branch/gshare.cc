#include "branch/gshare.hh"

#include "common/bitutils.hh"
#include "common/log.hh"
#include "isa/instruction.hh"

namespace sdv {

Gshare::Gshare(unsigned table_entries, unsigned history_bits)
    : table_(table_entries, SatCounter(2, 1)), // weakly not-taken
      historyMask_((history_bits >= 64) ? ~0ULL
                                        : ((1ULL << history_bits) - 1)),
      indexMask_(table_entries - 1)
{
    sdv_assert(isPowerOf2(table_entries), "gshare table must be 2^n");
    sdv_assert(history_bits >= 1 && history_bits <= 64,
               "bad history length");
}

unsigned
Gshare::index(Addr pc) const
{
    // Drop instruction alignment bits before hashing.
    const Addr word_pc = pc / instBytes;
    return unsigned((word_pc ^ history_) & indexMask_);
}

bool
Gshare::predict(Addr pc) const
{
    return table_[index(pc)].taken();
}

void
Gshare::update(Addr pc, bool taken)
{
    SatCounter &ctr = table_[index(pc)];
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
}

bool
Gshare::predictAndUpdate(Addr pc, bool taken)
{
    SatCounter &ctr = table_[index(pc)];
    const bool pred = ctr.taken();
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    return pred;
}

} // namespace sdv
