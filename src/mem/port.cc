#include "mem/port.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace sdv {

DCachePorts::DCachePorts(unsigned num_ports, bool wide, unsigned line_bytes,
                         unsigned word_bytes)
    : numPorts_(num_ports), wide_(wide), lineBytes_(line_bytes),
      maxServedPerAccess_(wide ? 4 : 1)
{
    sdv_assert(num_ports >= 1, "need at least one port");
    sdv_assert(isPowerOf2(line_bytes), "line size must be 2^n");
    sdv_assert(word_bytes <= line_bytes, "word larger than line");
}

void
DCachePorts::beginCycle()
{
    usedThisCycle_ = 0;
    cycleReads_.clear();

    // Close the previous cycle's accesses: no further words can join
    // them, so any record with no speculative resolution outstanding
    // folds into the Figure 13 histogram now, bounding ledger memory
    // by in-flight (unresolved) accesses.
    for (const std::int32_t id : openRecords_) {
        AccessRecord &rec = ledger_[size_t(id)];
        rec.open = false;
        if (rec.specPending == 0)
            foldRecord(id);
    }
    openRecords_.clear();
}

std::int32_t
DCachePorts::allocRecord()
{
    std::int32_t id;
    if (!freeSlots_.empty()) {
        id = freeSlots_.back();
        freeSlots_.pop_back();
        ledger_[size_t(id)] = AccessRecord{};
    } else {
        ledger_.emplace_back();
        id = std::int32_t(ledger_.size() - 1);
    }
    AccessRecord &rec = ledger_[size_t(id)];
    rec.inUse = true;
    rec.open = true;
    openRecords_.push_back(id);
    return id;
}

void
DCachePorts::foldRecord(std::int32_t id)
{
    AccessRecord &rec = ledger_[size_t(id)];
    ++folded_.totalReads;
    std::uint32_t useful = rec.demandWords + rec.specUsed;
    if (useful > 4)
        useful = 4;
    ++folded_.usefulWords[useful];
    rec.inUse = false;
    freeSlots_.push_back(id);
}

DCachePorts::Grant
DCachePorts::requestLoadWord(Addr addr, bool speculative)
{
    Grant g;
    const Addr line = lineOf(addr);

    auto account = [&](std::int32_t id) {
        AccessRecord &rec = ledger_[size_t(id)];
        ++rec.servedLoads;
        ++stats_.wordsServed;
        if (speculative) {
            ++rec.specPending;
        } else {
            ++rec.demandWords;
        }
    };

    if (wide_) {
        auto it = std::find_if(
            cycleReads_.rbegin(), cycleReads_.rend(),
            [line](const auto &read) { return read.first == line; });
        if (it != cycleReads_.rend()) {
            AccessRecord &rec = ledger_[size_t(it->second)];
            if (rec.servedLoads < maxServedPerAccess_) {
                g.ok = true;
                g.newAccess = false;
                g.accessId = it->second;
                account(it->second);
                return g;
            }
            // The access already served its limit; fall through to try
            // a fresh port for this word.
        }
    }

    if (usedThisCycle_ >= numPorts_)
        return g; // all ports busy this cycle

    ++usedThisCycle_;
    ++stats_.busyPortCycles;
    ++stats_.readAccesses;

    const std::int32_t id = allocRecord();
    if (wide_)
        cycleReads_.emplace_back(line, id);

    g.ok = true;
    g.newAccess = true;
    g.accessId = id;
    account(id);
    return g;
}

DCachePorts::Grant
DCachePorts::requestStoreWord(Addr addr)
{
    Grant g;
    if (usedThisCycle_ >= numPorts_)
        return g;
    ++usedThisCycle_;
    ++stats_.busyPortCycles;
    ++stats_.writeAccesses;

    // Stores keep no ledger record: Figure 13 buckets read accesses
    // only, and nothing downstream consumes a store's access id.
    (void)addr;
    g.ok = true;
    g.newAccess = true;
    return g;
}

void
DCachePorts::resolveElem(ElemLoadId id, bool used)
{
    sdv_assert(id != 0 && id <= ledger_.size(), "bad element load id ", id);
    const std::int32_t slot = std::int32_t(id - 1);
    AccessRecord &rec = ledger_[size_t(slot)];
    sdv_assert(rec.inUse && rec.specPending > 0,
               "element resolution against a folded record");
    if (used)
        ++rec.specUsed;
    --rec.specPending;
    if (!rec.open && rec.specPending == 0)
        foldRecord(slot);
}

WideBusBreakdown
DCachePorts::wideBusBreakdown() const
{
    WideBusBreakdown out = folded_;
    // Records still in flight (this cycle's accesses and accesses with
    // unresolved speculative elements): unresolved elements count as
    // unused, exactly as if they were folded now.
    for (const AccessRecord &rec : ledger_) {
        if (!rec.inUse)
            continue;
        ++out.totalReads;
        std::uint32_t useful = rec.demandWords + rec.specUsed;
        if (useful > 4)
            useful = 4;
        ++out.usefulWords[useful];
    }
    return out;
}

std::size_t
DCachePorts::ledgerLiveRecords() const
{
    size_t n = 0;
    for (const AccessRecord &rec : ledger_)
        if (rec.inUse)
            ++n;
    return n;
}

} // namespace sdv
