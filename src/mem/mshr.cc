#include "mem/mshr.hh"

#include "common/log.hh"
#include "obs/hooks.hh"

namespace sdv {

MshrFile::MshrFile(unsigned entries) : entries_(entries)
{
    sdv_assert(entries >= 1, "MSHR file needs at least one entry");
}

bool
MshrFile::allocate(Addr line_addr, Cycle ready, Cycle now,
                   Cycle &completion)
{
    Entry *free_entry = nullptr;
    for (auto &e : entries_) {
        if (!e.valid)
            continue;
        if (e.ready <= now) {
            // Fill finished; retire lazily.
            e.valid = false;
            if (!free_entry)
                free_entry = &e;
            continue;
        }
        if (e.lineAddr == line_addr) {
            // Merge with the in-flight fill.
            ++merges_;
            completion = e.ready < ready ? e.ready : ready;
            e.ready = completion;
            return true;
        }
    }
    if (!free_entry) {
        for (auto &e : entries_) {
            if (!e.valid) {
                free_entry = &e;
                break;
            }
        }
    }
    if (!free_entry) {
        ++fullStalls_;
        SDV_OBS_EVENT(recorder_, obs::EventKind::MshrRetry, line_addr);
        return false;
    }
    free_entry->valid = true;
    free_entry->lineAddr = line_addr;
    free_entry->ready = ready;
    ++allocations_;
    completion = ready;
    SDV_OBS_EVENT(recorder_, obs::EventKind::MshrAlloc, line_addr, ready);
    return true;
}

bool
MshrFile::outstanding(Addr line_addr, Cycle now) const
{
    for (const auto &e : entries_)
        if (e.valid && e.ready > now && e.lineAddr == line_addr)
            return true;
    return false;
}

unsigned
MshrFile::busyCount(Cycle now) const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        if (e.valid && e.ready > now)
            ++n;
    return n;
}

} // namespace sdv
