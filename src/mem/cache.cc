#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/log.hh"

namespace sdv {

Cache::Cache(std::string name, std::uint64_t size_bytes, unsigned assoc,
             unsigned line_bytes)
    : name_(std::move(name)),
      sets_(unsigned(size_bytes / (std::uint64_t(assoc) * line_bytes))),
      assoc_(assoc), lineBytes_(line_bytes)
{
    sdv_assert(isPowerOf2(line_bytes), "line size must be a power of two");
    sdv_assert(sets_ >= 1 && isPowerOf2(sets_),
               "cache geometry must yield a power-of-two set count");
    lines_.resize(size_t(sets_) * assoc_);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return unsigned((addr / lineBytes_) & (sets_ - 1));
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    CacheAccessResult res;
    const Addr tag = lineAddr(addr);
    Line *set = &lines_[size_t(setIndex(addr)) * assoc_];

    if (is_write)
        ++stats_.writeAccesses;
    else
        ++stats_.readAccesses;

    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].lastUse = ++useClock_;
            set[w].dirty = set[w].dirty || is_write;
            res.hit = true;
            return res;
        }
    }

    // Miss: pick the first invalid way, else the LRU way (one pass).
    Line *victim = &set[0];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    if (is_write)
        ++stats_.writeMisses;
    else
        ++stats_.readMisses;

    if (victim->valid && victim->dirty) {
        res.writeback = true;
        res.writebackAddr = victim->tag;
        ++stats_.writebacks;
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lastUse = ++useClock_;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const Addr tag = lineAddr(addr);
    const Line *set = &lines_[size_t(setIndex(addr)) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (set[w].valid && set[w].tag == tag)
            return true;
    return false;
}

void
Cache::saveState(Serializer &ser) const
{
    ser.u32(sets_);
    ser.u32(assoc_);
    ser.u32(lineBytes_);
    ser.u64(useClock_);
    for (const Line &l : lines_) {
        ser.b(l.valid);
        ser.b(l.dirty);
        ser.u64(l.tag);
        ser.u64(l.lastUse);
    }
}

bool
Cache::loadState(Deserializer &des)
{
    if (des.u32() != sets_ || des.u32() != assoc_ ||
        des.u32() != lineBytes_) {
        des.fail();
        return false;
    }
    useClock_ = des.u64();
    for (Line &l : lines_) {
        l.valid = des.b();
        l.dirty = des.b();
        l.tag = des.u64();
        l.lastUse = des.u64();
    }
    return des.ok();
}

} // namespace sdv
