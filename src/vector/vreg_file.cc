#include "vector/vreg_file.hh"

#include "common/bitutils.hh"
#include "common/log.hh"
#include "obs/hooks.hh"

namespace sdv {

namespace {

/** Pack reg/gen (and release cause) into one trace-event argument. */
std::uint64_t
packVregArg(VecRegId reg, std::uint32_t gen, unsigned cause = 0)
{
    return std::uint64_t(reg) | (std::uint64_t(gen & 0xffffu) << 16) |
           (std::uint64_t(cause) << 32);
}

} // namespace

VecRegFile::VecRegFile(unsigned num_regs, unsigned vlen)
    : numRegs_(num_regs), vlen_(vlen), regs_(num_regs)
{
    sdv_assert(num_regs >= 1, "need at least one vector register");
    sdv_assert(vlen >= 2, "vector length must be at least 2");
    sdv_assert(vlen <= 64, "flag bitmasks hold at most 64 elements");
    for (auto &r : regs_)
        r.elems.resize(vlen);
    sweepMarked_.assign(num_regs, false);
    sweepCandidates_.reserve(num_regs);
    rangedMask_.assign((num_regs + 63) / 64, 0);
}

const VecRegFile::Reg &
VecRegFile::regFor(VecRegRef ref) const
{
    sdv_assert(ref.reg < numRegs_, "bad vector register id");
    const Reg &r = regs_[ref.reg];
    sdv_assert(r.allocated && r.gen == ref.gen,
               "stale vector register reference");
    return r;
}

VecRegFile::Reg &
VecRegFile::regFor(VecRegRef ref)
{
    return const_cast<Reg &>(
        static_cast<const VecRegFile *>(this)->regFor(ref));
}

unsigned
VecRegFile::numFree() const
{
    unsigned n = 0;
    for (const Reg &r : regs_)
        n += !r.allocated;
    return n;
}

VecRegRef
VecRegFile::allocate(Addr mrbb)
{
    Reg *chosen = nullptr;
    for (unsigned i = 0; i < numRegs_ && !chosen; ++i)
        if (!regs_[i].allocated)
            chosen = &regs_[i];
    // Lazy condition-2 reclamation (see the header comment); every
    // register is live here.
    for (unsigned i = 0; i < numRegs_ && !chosen; ++i)
        if (tryRelease(VecRegRef{VecRegId(i), regs_[i].gen}, mrbb,
                       /*allow_cond2=*/true))
            chosen = &regs_[i];
    if (!chosen) {
        ++allocFailures_;
        return VecRegRef{};
    }
    Reg &r = *chosen;
    r.allocated = true;
    ++r.gen;
    r.mrbb = mrbb;
    r.elemCount = vlen_;
    r.killed = false;
    r.uniform = false;
    r.hasRange = false;
    r.vMask = r.rMask = r.uMask = r.fMask = 0;
    r.allocCycle = clock_;
    for (auto &e : r.elems)
        e = Elem{};
    const VecRegId id = VecRegId(unsigned(&r - regs_.data()));
    markSweepCandidate(id); // a degenerate incarnation may free at once
    SDV_OBS_EVENT(recorder_, obs::EventKind::VregAlloc, mrbb,
                  packVregArg(id, r.gen));
    return VecRegRef{id, r.gen};
}

void
VecRegFile::setData(VecRegRef ref, unsigned elem, std::uint64_t value)
{
    Reg &r = regFor(ref);
    sdv_assert(elem < r.elemCount, "element out of range");
    r.elems[elem].data = value;
    r.rMask |= std::uint64_t(1) << elem;
    markSweepCandidate(ref.reg);
}

std::uint64_t
VecRegFile::data(VecRegRef ref, unsigned elem) const
{
    const Reg &r = regFor(ref);
    sdv_assert(elem < vlen_ && ((r.rMask >> elem) & 1),
               "reading non-ready element");
    return r.elems[elem].data;
}

bool
VecRegFile::isReady(VecRegRef ref, unsigned elem) const
{
    const Reg &r = regFor(ref);
    sdv_assert(elem < vlen_, "element out of range");
    return (r.rMask >> elem) & 1;
}

void
VecRegFile::setUsed(VecRegRef ref, unsigned elem, bool used)
{
    Reg &r = regFor(ref);
    sdv_assert(elem < vlen_, "element out of range");
    const std::uint64_t bit = std::uint64_t(1) << elem;
    r.uMask = used ? (r.uMask | bit) : (r.uMask & ~bit);
    markSweepCandidate(ref.reg);
}

bool
VecRegFile::anyUsed(VecRegRef ref) const
{
    return regFor(ref).uMask != 0;
}

void
VecRegFile::setValid(VecRegRef ref, unsigned elem)
{
    Reg &r = regFor(ref);
    sdv_assert(elem < vlen_, "element out of range");
    const std::uint64_t bit = std::uint64_t(1) << elem;
    r.vMask |= bit;
    r.uMask &= ~bit;
    markSweepCandidate(ref.reg);
}

bool
VecRegFile::isValid(VecRegRef ref, unsigned elem) const
{
    const Reg &r = regFor(ref);
    sdv_assert(elem < vlen_, "element out of range");
    return (r.vMask >> elem) & 1;
}

void
VecRegFile::setFree(VecRegRef ref, unsigned elem)
{
    Reg &r = regFor(ref);
    sdv_assert(elem < vlen_, "element out of range");
    r.fMask |= std::uint64_t(1) << elem;
    markSweepCandidate(ref.reg);
}

void
VecRegFile::setElemCount(VecRegRef ref, unsigned count)
{
    Reg &r = regFor(ref);
    sdv_assert(count >= 1 && count <= vlen_, "bad element count");
    r.elemCount = count;
    markSweepCandidate(ref.reg);
}

unsigned
VecRegFile::elemCount(VecRegRef ref) const
{
    return regFor(ref).elemCount;
}

void
VecRegFile::setAddrRange(VecRegRef ref, Addr first, Addr last,
                         unsigned elem_bytes)
{
    Reg &r = regFor(ref);
    r.hasRange = true;
    rangedMask_[ref.reg / 64] |= std::uint64_t(1) << (ref.reg % 64);
    const Addr lo = first < last ? first : last;
    const Addr hi = first < last ? last : first;
    r.rangeLo = lo;
    r.rangeHi = hi + elem_bytes - 1;
}

bool
VecRegFile::rangeOverlaps(VecRegRef ref, Addr lo, Addr hi) const
{
    const Reg &r = regFor(ref);
    if (!r.hasRange)
        return false;
    return lo <= r.rangeHi && hi >= r.rangeLo;
}

void
VecRegFile::setElemLoadId(VecRegRef ref, unsigned elem, ElemLoadId id)
{
    Reg &r = regFor(ref);
    sdv_assert(elem < vlen_, "element out of range");
    r.elems[elem].loadId = id;
}

void
VecRegFile::setUniform(VecRegRef ref, bool uniform)
{
    regFor(ref).uniform = uniform;
}

bool
VecRegFile::isUniform(VecRegRef ref) const
{
    return regFor(ref).uniform;
}

void
VecRegFile::kill(VecRegRef ref)
{
    if (isLive(ref)) {
        Reg &r = regFor(ref);
        r.killed = true;
        markSweepCandidate(ref.reg);
    }
}

bool
VecRegFile::isKilled(VecRegRef ref) const
{
    return regFor(ref).killed;
}

void
VecRegFile::release(Reg &reg, ReleaseCause cause)
{
    const std::uint64_t all = lowBits(vlen_);
    const unsigned computed = popCount(reg.rMask & all);
    fates_.elemsComputedUsed += popCount(reg.rMask & reg.vMask & all);
    fates_.elemsComputedNotUsed +=
        popCount(reg.rMask & ~reg.vMask & all);
    fates_.elemsNotComputed += vlen_ - computed;
    if (ports_)
        for (unsigned e = 0; e < vlen_; ++e) {
            const ElemLoadId lid = reg.elems[e].loadId;
            if (lid != 0)
                ports_->resolveElem(lid, (reg.vMask >> e) & 1);
        }
    ++fates_.regsReleased;
    const Cycle age = clock_ - reg.allocCycle;
    fates_.lifetimeCycles += age;
    unsigned bucket = 0;
    for (Cycle bound = 8; bucket < 7 && age >= bound; bound <<= 2)
        ++bucket;
    ++fates_.lifetimeHist[bucket];
    switch (cause) {
      case ReleaseCause::Cond1:
        ++fates_.releasedCond1;
        break;
      case ReleaseCause::Cond2:
        ++fates_.releasedCond2;
        break;
      case ReleaseCause::Killed:
        ++fates_.releasedKilled;
        break;
      case ReleaseCause::Bulk:
        ++fates_.releasedBulk;
        break;
    }
    const auto id = VecRegId(unsigned(&reg - regs_.data()));
    reg.allocated = false;
    rangedMask_[id / 64] &= ~(std::uint64_t(1) << (id % 64));
    SDV_OBS_EVENT(recorder_, obs::EventKind::VregRelease, 0,
                  packVregArg(id, reg.gen, unsigned(cause)), age);
}

std::optional<VecRegFile::ReleaseCause>
VecRegFile::releaseCause(const Reg &r, Addr gmrbb, bool allow_cond2) const
{
    // Every Section 3.3 predicate over the computable elements is a
    // single-word mask test, and none releases a register while a
    // validation is in flight.
    const std::uint64_t cnt = lowBits(r.elemCount);
    if ((r.uMask & cnt) != 0)
        return std::nullopt;

    // Killed incarnations just wait for in-flight validations to drain.
    if (r.killed)
        return ReleaseCause::Killed;

    // Condition 1: every element computed and freed.
    if ((r.rMask & r.fMask & cnt) == cnt)
        return ReleaseCause::Cond1;

    // Condition 2: every validated element freed, all computed, and the
    // allocating loop has terminated (MRBB != GMRBB). Only applied
    // under allocation pressure (see allocate()).
    if (allow_cond2 && (r.rMask & cnt) == cnt &&
        (r.vMask & ~r.fMask & cnt) == 0 && r.mrbb != gmrbb)
        return ReleaseCause::Cond2;
    return std::nullopt;
}

bool
VecRegFile::tryRelease(VecRegRef ref, Addr gmrbb, bool allow_cond2)
{
    if (!isLive(ref))
        return false;
    Reg &r = regFor(ref);
    const std::optional<ReleaseCause> cause =
        releaseCause(r, gmrbb, allow_cond2);
    if (!cause)
        return false;
    release(r, *cause);
    return true;
}

unsigned
VecRegFile::sweepReleases(Addr gmrbb)
{
    unsigned freed = 0;
    for (const VecRegId id : sweepCandidates_) {
        sweepMarked_[id] = false;
        const Reg &r = regs_[id];
        if (r.allocated &&
            tryRelease(VecRegRef{id, r.gen}, gmrbb,
                       /*allow_cond2=*/false))
            ++freed;
    }
    sweepCandidates_.clear();
    return freed;
}

std::string
VecRegFile::auditSweep(Addr gmrbb) const
{
    std::vector<unsigned> listed(numRegs_, 0);
    for (const VecRegId id : sweepCandidates_)
        if (id >= numRegs_ || ++listed[id] > 1 || !sweepMarked_[id])
            return detail::concat("vreg ", id,
                                  ": candidate list entry out of place");
    for (unsigned i = 0; i < numRegs_; ++i) {
        if (sweepMarked_[i] != (listed[i] != 0))
            return detail::concat("vreg ", i, ": marked but not listed");
        const Reg &r = regs_[i];
        if (r.allocated && !listed[i] &&
            releaseCause(r, gmrbb, /*allow_cond2=*/false))
            return detail::concat("vreg ", i,
                                  ": releasable but not a candidate");
    }
    return {};
}

std::string
VecRegFile::auditRanged() const
{
    for (unsigned i = 0; i < rangedMask_.size() * 64; ++i) {
        const bool set = (rangedMask_[i / 64] >> (i % 64)) & 1;
        const bool ranged =
            i < numRegs_ && regs_[i].allocated && regs_[i].hasRange;
        if (set != ranged)
            return detail::concat("vreg ", i, ": range mask bit ", set,
                                  " but allocated with a range ", ranged);
    }
    return {};
}

void
VecRegFile::releaseAll()
{
    forEachLive([&](VecRegRef ref) { release(regs_[ref.reg],
                                             ReleaseCause::Bulk); });
}

void
VecRegFile::releaseSquashed(VecRegRef ref)
{
    if (!isLive(ref))
        return;
    // No Figure 15 fates: the incarnation never existed
    // architecturally.
    Reg &r = regFor(ref);
    if (ports_)
        for (auto &e : r.elems)
            if (e.loadId != 0)
                ports_->resolveElem(e.loadId, false);
    r.allocated = false;
    rangedMask_[ref.reg / 64] &= ~(std::uint64_t(1) << (ref.reg % 64));
    SDV_OBS_EVENT(recorder_, obs::EventKind::VregRelease, 0,
                  packVregArg(ref.reg, r.gen, /*cause=*/4),
                  clock_ - r.allocCycle);
}

} // namespace sdv
