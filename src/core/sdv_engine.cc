#include "core/sdv_engine.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/hooks.hh"

namespace sdv {

namespace {

/** Pack a register incarnation into one trace-event argument. */
std::uint64_t
packRef(VecRegRef ref)
{
    return std::uint64_t(ref.reg) |
           (std::uint64_t(ref.gen & 0xffffu) << 16);
}

} // namespace

SdvEngine::SdvEngine(const EngineConfig &cfg)
    : cfg_(cfg), tl_(cfg.tlSets, cfg.tlWays, cfg.tlConfidence),
      vrmt_(cfg.vrmtSets, cfg.vrmtWays), vrf_(cfg.numVregs, cfg.vlen),
      datapath_(cfg.fu, vrf_)
{
}

void
SdvEngine::saveRenamePrev(DynInst &d, const RenameTable &rt)
{
    if (!d.wroteRename) {
        d.wroteRename = true;
        d.prevRename = rt.entry(d.inst().rd);
    }
}

void
SdvEngine::saveVrmtPrev(DynInst &d)
{
    if (!d.replacedVrmt) {
        d.replacedVrmt = true;
        const VrmtEntry *prev = vrmt_.lookup(d.pc());
        d.prevVrmtExisted = prev != nullptr;
        if (prev)
            d.prevVrmt = *prev;
    }
}

void
SdvEngine::plainRenameWrite(DynInst &d, RenameTable &rt)
{
    if (!d.inst().writesReg())
        return;
    saveRenamePrev(d, rt);
    RenameEntry e;
    e.lastWriter = d.seq;
    rt.set(d.inst().rd, e);
}

DecodeAction
SdvEngine::decode(DynInst &d, RenameTable &rt,
                  const VecExecContext &ctx)
{
    if (!cfg_.enabled) {
        plainRenameWrite(d, rt);
        return DecodeAction::Normal;
    }
    const OpInfo &info = d.inst().info();
    if (d.isLoad() && info.vectorizable && d.inst().rd != zeroReg)
        return decodeLoad(d, rt);
    if (info.vectorizable && info.writesRd && d.inst().rd != zeroReg &&
        !d.isLoad())
        return decodeArith(d, rt, ctx);
    plainRenameWrite(d, rt);
    return DecodeAction::Normal;
}

// --- loads --------------------------------------------------------------

DecodeAction
SdvEngine::decodeLoad(DynInst &d, RenameTable &rt)
{
    const Addr pc = d.pc();
    if (!d.touchedTl) {
        d.touchedTl = true;
        d.tlSnap = tl_.snapshot(pc);
    }
    const TlObservation obs = tl_.observe(pc, d.rec.addr);

    VrmtEntry *ve = vrmt_.lookup(pc);

    // Eager chaining: once the current incarnation is exhausted — or
    // already *released* (a fully validated, fully superseded register
    // frees before this pc decodes again; the entry then reads dead
    // even though its pending successor carries the chain) — swap the
    // successor in and validate its first element.
    if (cfg_.eagerChainLoads && ve && ve->isLoad && ve->hasNext) {
        const bool cur_live = vrf_.isLive(ve->vreg) &&
                              !vrf_.isKilled(ve->vreg);
        const bool exhausted =
            !cur_live || ve->offset >= vrf_.elemCount(ve->vreg);
        if (exhausted) {
            const bool next_ok = vrf_.isLive(ve->nextVreg) &&
                                 !vrf_.isKilled(ve->nextVreg);
            if (next_ok &&
                d.rec.addr == ve->nextBase + Addr(ve->stride)) {
                saveVrmtPrev(d); // pre-swap entry for squash undo
                ve->vreg = ve->nextVreg;
                ve->baseAddr = ve->nextBase;
                ve->offset = 0;
                ve->hasNext = false;
                makeValidation(d, rt, *ve);
                ++stats_.loadValidations;
                eagerSpawnNext(d, *ve); // keep one incarnation ahead
                return DecodeAction::Normal;
            }
            // The pattern broke right at the successor boundary (or
            // the successor died): the eager loads were wasted.
            killEntry(*ve);
            plainRenameWrite(d, rt);
            return DecodeAction::Normal;
        }
    }

    const bool ve_live = ve && vrf_.isLive(ve->vreg) &&
                         !vrf_.isKilled(ve->vreg) && ve->isLoad;

    if (ve_live) {
        const unsigned count = vrf_.elemCount(ve->vreg);
        if (ve->offset < count) {
            const Addr expected =
                ve->baseAddr +
                Addr(ve->stride * std::int64_t(ve->offset + 1));
            if (d.rec.addr == expected) {
                makeValidation(d, rt, *ve);
                ++stats_.loadValidations;
                if (cfg_.eagerChainLoads) {
                    // Spawn the successor a whole incarnation early —
                    // at the first validation — so its element loads
                    // lead their consumers by ~vlen loop iterations
                    // regardless of the chain's line alignment.
                    if (d.valElem == 0 && !ve->hasNext)
                        eagerSpawnNext(d, *ve);
                    // Allocation failed at element 0: fall back to the
                    // paper's last-element chain.
                    if (unsigned(d.valElem) + 1 == count &&
                        !ve->hasNext)
                        tryChainLoad(d, rt);
                } else if (unsigned(d.valElem) + 1 == count) {
                    tryChainLoad(d, rt);
                }
                return DecodeAction::Normal;
            }
            // Address misspeculation: scalar until the TL re-detects.
            ++stats_.loadAddrMisspecs;
            SDV_OBS_EVENT(recorder_, ::sdv::obs::EventKind::ValMiss, pc,
                          packRef(ve->vreg), /*addr_misspec=*/2);
            killEntry(*ve);
            tl_.resetConfidence(pc);
            plainRenameWrite(d, rt);
            return DecodeAction::Normal;
        }
        // The chain spawn could not get a register (or the successor
        // died to a store conflict); continue the pattern with a fresh
        // spawn if the address still follows it.
        const Addr expected =
            ve->baseAddr + Addr(ve->stride * std::int64_t(count + 1));
        if (d.rec.addr == expected &&
            trySpawnLoad(d, rt, ve->stride)) {
            return DecodeAction::Normal;
        }
        killEntry(*ve);
        plainRenameWrite(d, rt);
        return DecodeAction::Normal;
    }


    if (obs.spawn) {
        SDV_OBS_EVENT(recorder_, ::sdv::obs::EventKind::TlPromote, pc,
                      std::uint64_t(obs.stride));
        if (trySpawnLoad(d, rt, obs.stride))
            return DecodeAction::Normal;
    }

    plainRenameWrite(d, rt);
    return DecodeAction::Normal;
}

/**
 * Allocate and launch a load incarnation whose elements follow the
 * access at @p base: the one launch sequence of a fresh spawn
 * (trySpawnLoad), the last-element chain (tryChainLoad) and the eager
 * chain (eagerSpawnNext).
 *
 * A stride-0 incarnation is uniform by construction — every element
 * loads the same address.
 *
 * @return the new incarnation, or an invalid ref when no register was
 * free (the caller's retry paths handle it)
 */
VecRegRef
SdvEngine::launchLoad(DynInst &d, Addr base, std::int64_t stride)
{
    const VecRegRef v = vrf_.allocate(gmrbb_);
    if (!v.valid())
        return v;
    const unsigned vl = cfg_.vlen;
    vrf_.setElemCount(v, vl);
    vrf_.setUniform(v, stride == 0);
    vrf_.setAddrRange(v, base + Addr(stride),
                      base + Addr(stride * std::int64_t(vl)), d.rec.size);

    datapath_.spawnLoad(v, base, stride, d.rec.size, vl);

    d.spawnedVector = true;
    d.spawnedDest = v;
    return v;
}

bool
SdvEngine::trySpawnLoad(DynInst &d, RenameTable &rt, std::int64_t stride)
{
    const VecRegRef v = launchLoad(d, d.rec.addr, stride);
    if (!v.valid())
        return false;

    saveVrmtPrev(d);
    VrmtEntry e;
    e.valid = true;
    e.pc = d.pc();
    e.vreg = v;
    e.offset = 0;
    e.isLoad = true;
    e.stride = stride;
    e.baseAddr = d.rec.addr;
    vrmt_.install(e);

    saveRenamePrev(d, rt);
    RenameEntry re;
    re.lastWriter = d.seq;
    re.isVector = true;
    re.vreg = v;
    re.offset = 0;
    rt.set(d.inst().rd, re);

    ++stats_.loadSpawns;
    SDV_OBS_EVENT(recorder_, obs::EventKind::ChainSpawn, d.pc(),
                  packRef(v), /*arith=*/0);
    return true;
}

void
SdvEngine::tryChainLoad(DynInst &d, RenameTable &rt)
{
    // d just validated the last element at address d.rec.addr; the
    // successor incarnation continues from there.
    VrmtEntry *ve = vrmt_.lookup(d.pc());
    sdv_assert(ve, "chain with no entry");
    const Addr base = d.rec.addr;
    const VecRegRef v2 = launchLoad(d, base, ve->stride);
    if (!v2.valid())
        return; // the offset==count decode path retries later
    ++stats_.loadChainSpawns;
    SDV_OBS_EVENT(recorder_, obs::EventKind::ChainExtend, d.pc(),
                  packRef(v2), /*eager=*/0);

    saveVrmtPrev(d);
    VrmtEntry e = *ve;
    e.vreg = v2;
    e.offset = 0;
    e.baseAddr = base;
    vrmt_.install(e);

    // Keep lastWriter/curElem from the validation; repoint the vector
    // mapping at the new incarnation.
    RenameEntry re = rt.entry(d.inst().rd);
    re.vreg = v2;
    re.offset = 0;
    rt.set(d.inst().rd, re);
}

void
SdvEngine::eagerSpawnNext(DynInst &d, VrmtEntry &ve)
{
    // The successor continues from the current incarnation's last
    // element, whose address is fully determined by the stored stride.
    const Addr base =
        ve.baseAddr +
        Addr(ve.stride * std::int64_t(vrf_.elemCount(ve.vreg)));
    const VecRegRef v2 = launchLoad(d, base, ve.stride);
    if (!v2.valid())
        return; // last-element validation falls back to tryChainLoad
    ++stats_.loadChainSpawns;
    SDV_OBS_EVENT(recorder_, obs::EventKind::ChainExtend, d.pc(),
                  packRef(v2), /*eager=*/1);

    saveVrmtPrev(d);
    ve.hasNext = true;
    ve.nextVreg = v2;
    ve.nextBase = base;
}

// --- arithmetic ------------------------------------------------------------

SrcSpec
SdvEngine::currentSpec(const DynInst &d, unsigned slot,
                       const RenameTable &rt) const
{
    const OpInfo &info = d.inst().info();
    const bool reads = slot == 1 ? info.readsRs1 : info.readsRs2;
    if (!reads)
        return SrcSpec::none();
    const RegId r = slot == 1 ? d.inst().rs1 : d.inst().rs2;
    const std::uint64_t value =
        slot == 1 ? d.rec.srcValue1 : d.rec.srcValue2;
    const RenameEntry &e = rt.entry(r);
    if (e.isVector && vrf_.isLive(e.vreg) && !vrf_.isKilled(e.vreg))
        return SrcSpec::vector(e.vreg, e.offset);
    SrcSpec spec = SrcSpec::scalar(value);
    spec.depSeq = e.lastWriter; // instance waits for it in the queue
    return spec;
}

bool
SdvEngine::operandsMatch(const VrmtEntry &ve, const ExecRecord &rec,
                         const RenameTable &rt) const
{
    const OpInfo &info = rec.inst.info();
    for (unsigned slot = 1; slot <= 2; ++slot) {
        const bool reads = slot == 1 ? info.readsRs1 : info.readsRs2;
        const SrcSpec &stored = slot == 1 ? ve.src1 : ve.src2;
        if (!reads) {
            if (stored.kind != SrcSpec::Kind::None)
                return false;
            continue;
        }
        const RegId r = slot == 1 ? rec.inst.rs1 : rec.inst.rs2;
        const std::uint64_t cur_value =
            slot == 1 ? rec.srcValue1 : rec.srcValue2;
        switch (stored.kind) {
          case SrcSpec::Kind::None:
            return false;
          case SrcSpec::Kind::Scalar:
            // Paper: compare the captured value with the register's
            // current value.
            if (cur_value != stored.value)
                return false;
            break;
          case SrcSpec::Kind::Vector: {
            // The value this scalar instance would consume must be
            // element (srcOffset + k) of the stored register, where k
            // is the element about to be validated. A uniform source
            // (all elements identical, e.g. a stride-0 load) matches
            // regardless of the element offset.
            if (!vrf_.isLive(stored.vreg) || vrf_.isKilled(stored.vreg))
                return false;
            const RenameEntry &e = rt.entry(r);
            if (!e.hasCurElem || !(e.curElemVreg == stored.vreg))
                return false;
            const unsigned want = stored.srcOffset + ve.offset;
            if (e.curElem != want && !vrf_.isUniform(stored.vreg))
                return false;
            break;
          }
        }
    }
    return true;
}

bool
SdvEngine::scalarOperandBlocked(const SrcSpec &spec, unsigned slot,
                                const ExecRecord &rec,
                                const RenameTable &rt,
                                const VecExecContext &ctx) const
{
    if (!spec.isScalar())
        return false;
    const OpInfo &info = rec.inst.info();
    const bool reads = slot == 1 ? info.readsRs1 : info.readsRs2;
    if (!reads)
        return false;
    const RegId r = slot == 1 ? rec.inst.rs1 : rec.inst.rs2;
    const InstSeqNum w = rt.entry(r).lastWriter;
    return w != 0 && !ctx.seqCompleted(w);
}

DecodeAction
SdvEngine::decodeArith(DynInst &d, RenameTable &rt,
                       const VecExecContext &ctx)
{
    const Addr pc = d.pc();
    VrmtEntry *ve = vrmt_.lookup(pc);
    const bool ve_live = ve && vrf_.isLive(ve->vreg) &&
                         !vrf_.isKilled(ve->vreg) && !ve->isLoad;

    if (ve_live && ve->offset < vrf_.elemCount(ve->vreg) &&
        operandsMatch(*ve, d.rec, rt)) {
        // Section 3.2: validating a mixed (vector + captured-scalar)
        // entry compares the scalar *value*, so decode must hold the
        // instruction until the value is available (Figure 7).
        const bool mixed = (ve->src1.isScalar() || ve->src2.isScalar()) &&
                           (ve->src1.isVector() || ve->src2.isVector());
        if (mixed && cfg_.blockOnScalarOperand &&
            (scalarOperandBlocked(ve->src1, 1, d.rec, rt, ctx) ||
             scalarOperandBlocked(ve->src2, 2, d.rec, rt, ctx))) {
            return DecodeAction::Blocked;
        }
        // Capture the successor's source specs *before* the validation
        // rewrites the rename entry: when rd == rs the write would
        // otherwise hide the source's current mapping.
        const bool last =
            unsigned(ve->offset) + 1 == vrf_.elemCount(ve->vreg);
        SrcSpec cs1, cs2;
        if (last) {
            cs1 = currentSpec(d, 1, rt);
            cs2 = currentSpec(d, 2, rt);
        }
        makeValidation(d, rt, *ve);
        ++stats_.arithValidations;
        if (last)
            tryChainArith(d, rt, cs1, cs2);
        return DecodeAction::Normal;
    }

    // Source specs for the spawn path, captured before any killEntry
    // below: a stale entry being killed may BE a source's current
    // rename mapping (rd == rs), and the original capture saw it live.
    const SrcSpec s1 = currentSpec(d, 1, rt);
    const SrcSpec s2 = currentSpec(d, 2, rt);
    const bool any_vec = s1.isVector() || s2.isVector();

    if (ve_live) {
        // Entry exists but cannot validate this instance: operand
        // mismatch (misspeculation) or exhausted incarnation.
        if (ve->offset < vrf_.elemCount(ve->vreg)) {
            ++stats_.arithOperandMisspecs;
            SDV_OBS_EVENT(recorder_, obs::EventKind::ValMiss, pc,
                          packRef(ve->vreg), /*operand_misspec=*/3);
        }
        killEntry(*ve);
    } else if (ve && ve->isLoad && vrf_.isLive(ve->vreg)) {
        // A load entry aliased onto this PC (should not happen: PCs are
        // unique per instruction) - treat as stale.
        killEntry(*ve);
    }

    if (any_vec) {
        // Spawns never block decode: the new vector instance waits in
        // the vector instruction queue until its captured-scalar
        // operand's producer completes (Section 3.4).
        if (trySpawnArith(d, rt, s1, s2))
            return DecodeAction::Normal;
    }

    plainRenameWrite(d, rt);
    return DecodeAction::Normal;
}

bool
SdvEngine::specsUniform(const SrcSpec &s1, const SrcSpec &s2) const
{
    bool any_vector = false;
    for (const SrcSpec *s : {&s1, &s2}) {
        if (!s->isVector())
            continue;
        any_vector = true;
        // A source reclaimed meanwhile (lazy condition-2 steal) is
        // treated as non-uniform; the instance will abort anyway.
        if (!vrf_.isLive(s->vreg) || !vrf_.isUniform(s->vreg))
            return false;
    }
    return any_vector; // all vector sources uniform
}

unsigned
SdvEngine::computableElems(const SrcSpec &s1, const SrcSpec &s2) const
{
    // Section 3.4: the largest source offset bounds the element count;
    // additionally a source incarnation that itself computes fewer than
    // vlen elements bounds its consumers (otherwise a consumer would
    // wait forever on an element its producer will never make).
    // Uniform sources impose no bound: any computed element serves.
    unsigned count = cfg_.vlen;
    for (const SrcSpec *s : {&s1, &s2}) {
        if (!s->isVector())
            continue;
        if (!vrf_.isLive(s->vreg))
            return 0; // reclaimed meanwhile: nothing to compute
        if (vrf_.isUniform(s->vreg))
            continue;
        const unsigned avail = vrf_.elemCount(s->vreg);
        if (s->srcOffset >= avail)
            return 0;
        count = std::min(count, avail - s->srcOffset);
    }
    return count;
}

/**
 * Allocate and launch an arithmetic incarnation over @p s1 and @p s2:
 * the one launch sequence of a fresh spawn (trySpawnArith) and a chain
 * successor (tryChainArith), VRMT install included.
 *
 * @return the new incarnation, or an invalid ref when the sources
 * compute no element or no register was free
 */
VecRegRef
SdvEngine::launchArith(DynInst &d, const SrcSpec &s1, const SrcSpec &s2)
{
    // Evaluate source-derived properties before allocate(): its lazy
    // condition-2 reclamation may steal one of the source registers.
    const unsigned count = computableElems(s1, s2);
    const bool uniform = specsUniform(s1, s2);
    if (count == 0)
        return VecRegRef{};

    const VecRegRef v = vrf_.allocate(gmrbb_);
    if (!v.valid())
        return v;
    vrf_.setElemCount(v, count);
    vrf_.setUniform(v, uniform);

    saveVrmtPrev(d);
    VrmtEntry e;
    e.valid = true;
    e.pc = d.pc();
    e.vreg = v;
    e.offset = 0;
    e.src1 = s1;
    e.src2 = s2;
    e.isLoad = false;
    vrmt_.install(e);

    datapath_.spawnArith(d.inst().op, d.inst().imm, v, s1, s2, count);

    d.spawnedVector = true;
    d.spawnedDest = v;
    return v;
}

bool
SdvEngine::trySpawnArith(DynInst &d, RenameTable &rt, const SrcSpec &s1,
                         const SrcSpec &s2)
{
    const VecRegRef v = launchArith(d, s1, s2);
    if (!v.valid())
        return false;

    saveRenamePrev(d, rt);
    RenameEntry re;
    re.lastWriter = d.seq;
    re.isVector = true;
    re.vreg = v;
    re.offset = 0;
    rt.set(d.inst().rd, re);

    ++stats_.arithSpawns;
    if ((s1.isScalar() && s2.isVector()) ||
        (s1.isVector() && s2.isScalar()))
        ++stats_.mixedScalarSpawns;
    SDV_OBS_EVENT(recorder_, obs::EventKind::ChainSpawn, d.pc(),
                  packRef(v), /*arith=*/1);
    return true;
}

void
SdvEngine::tryChainArith(DynInst &d, RenameTable &rt, const SrcSpec &s1,
                         const SrcSpec &s2)
{
    // Sources for the successor incarnation are the rename mappings as
    // captured just before this validation's own rename write (they
    // already point at the sources' successor incarnations mid-loop).
    if (!s1.isVector() && !s2.isVector())
        return; // no vector source any more: stop the chain

    const VecRegRef v2 = launchArith(d, s1, s2);
    if (!v2.valid())
        return;

    RenameEntry re = rt.entry(d.inst().rd);
    re.vreg = v2;
    re.offset = 0;
    rt.set(d.inst().rd, re);

    ++stats_.arithChainSpawns;
    SDV_OBS_EVENT(recorder_, obs::EventKind::ChainExtend, d.pc(),
                  packRef(v2), /*eager=*/0);
}

// --- shared decode helpers ------------------------------------------------

void
SdvEngine::makeValidation(DynInst &d, RenameTable &rt, VrmtEntry &ve)
{
    d.mode = InstMode::Validation;
    d.valVreg = ve.vreg;
    d.valElem = ve.offset;
    SDV_OBS_EVENT(recorder_, obs::EventKind::ValIssue, d.pc(),
                  packRef(ve.vreg), ve.offset);
    vrf_.setUsed(ve.vreg, ve.offset, true);
    ++ve.offset;
    d.bumpedVrmtOffset = true;

    saveRenamePrev(d, rt);
    RenameEntry re;
    re.lastWriter = d.seq;
    re.isVector = true;
    re.vreg = ve.vreg;
    re.offset = ve.offset;
    re.curElemVreg = ve.vreg;
    re.curElem = d.valElem;
    re.hasCurElem = true;
    rt.set(d.inst().rd, re);
}

void
SdvEngine::killEntry(VrmtEntry &ve)
{
    SDV_OBS_EVENT(recorder_, obs::EventKind::ChainKill, ve.pc,
                  packRef(ve.vreg));
    if (vrf_.isLive(ve.vreg)) {
        vrf_.kill(ve.vreg);
        datapath_.abortByDest(ve.vreg);
    }
    if (ve.hasNext && vrf_.isLive(ve.nextVreg)) {
        vrf_.kill(ve.nextVreg);
        datapath_.abortByDest(ve.nextVreg);
    }
    ve.valid = false;
}

// --- completion / commit side -------------------------------------------

VecRegFile::ValElem
SdvEngine::validationStatus(const DynInst &d) const
{
    return vrf_.valElem(d.valVreg, d.valElem);
}

void
SdvEngine::fallbackValidation(DynInst &d)
{
    if (vrf_.isLive(d.valVreg))
        vrf_.setUsed(d.valVreg, d.valElem, false);
    d.mode = InstMode::Scalar;
    ++stats_.lateValidationFallbacks;
    SDV_OBS_EVENT(recorder_, obs::EventKind::ValMiss, d.pc(),
                  packRef(d.valVreg), /*fallback=*/1);
}

void
SdvEngine::onValidationCommit(const DynInst &d)
{
    if (vrf_.isLive(d.valVreg)) {
        if (vrf_.isReady(d.valVreg, d.valElem)) {
            if (vrf_.data(d.valVreg, d.valElem) != d.rec.value) {
                ++stats_.validationValueMismatches;
                SDV_OBS_EVENT(recorder_, obs::EventKind::ValMiss, d.pc(),
                              packRef(d.valVreg), /*mismatch=*/0);
            } else {
                SDV_OBS_EVENT(recorder_, obs::EventKind::ValHit, d.pc(),
                              packRef(d.valVreg), d.valElem);
            }
        }
        vrf_.setValid(d.valVreg, d.valElem);
    }
    Shadow next;
    next.valid = true;
    next.vreg = d.valVreg;
    next.elem = d.valElem;
    applyShadowWrite(d.inst().rd, next);
}

void
SdvEngine::onScalarWriterCommit(const DynInst &d)
{
    if (d.inst().writesReg())
        applyShadowWrite(d.inst().rd, Shadow{});
}

void
SdvEngine::applyShadowWrite(RegId rd, const Shadow &next)
{
    if (rd == zeroReg)
        return;
    Shadow &sh = shadow_[rd];
    if (sh.valid && vrf_.isLive(sh.vreg))
        vrf_.setFree(sh.vreg, sh.elem);
    sh = next;
}

bool
SdvEngine::onStoreCommit(const DynInst &d)
{
    if (!cfg_.enabled)
        return false;
    ++stats_.storesChecked;
    const Addr lo = d.rec.addr;
    const Addr hi = lo + d.rec.size - 1;
    bool conflict = false;
    std::vector<Addr> &load_pcs = storeCheckPcs_;
    load_pcs.clear();
    std::vector<VecRegRef> &successors = storeCheckSuccessors_;
    successors.clear();
    vrf_.forEachRanged([&](VecRegRef ref) {
        if (!vrf_.rangeOverlaps(ref, lo, hi))
            return;
        if (!vrf_.isKilled(ref)) {
            conflict = true;
            vrmt_.invalidateByVreg(ref, &load_pcs, &successors);
            vrf_.kill(ref);
            datapath_.abortByDest(ref);
        } else if (vrf_.anyUsed(ref)) {
            // Killed before this store, but a validation decoded
            // against it is still in flight and younger than the
            // store: it would commit the pre-store value, so squash.
            conflict = true;
        }
    });
    // An invalidated entry's eagerly-spawned successor is reachable
    // only through that entry: kill it with the entry (as killEntry
    // does), or it leaks as an unreachable live register with element
    // loads still in flight.
    for (const VecRegRef succ : successors) {
        if (vrf_.isLive(succ) && !vrf_.isKilled(succ)) {
            vrf_.kill(succ);
            datapath_.abortByDest(succ);
        }
    }
    if (conflict) {
        ++stats_.storeRangeConflicts;
        // Scalar mode until the TL regains confidence (Section 3.1).
        for (Addr pc : load_pcs)
            tl_.resetConfidence(pc);
    }
    return conflict;
}

void
SdvEngine::onControlCommit(const DynInst &d)
{
    if (d.rec.taken && d.rec.nextPc < d.pc())
        gmrbb_ = d.pc();
}

// --- squash undo ----------------------------------------------------------------

void
SdvEngine::undoDecode(DynInst &d, RenameTable &rt)
{
    if (d.spawnedVector) {
        datapath_.abortByDest(d.spawnedDest);
        vrf_.releaseSquashed(d.spawnedDest);
        d.spawnedVector = false;
    }
    if (d.replacedVrmt) {
        if (d.prevVrmtExisted)
            vrmt_.install(d.prevVrmt);
        else
            vrmt_.invalidate(d.pc());
        d.replacedVrmt = false;
    }
    if (d.bumpedVrmtOffset) {
        VrmtEntry *ve = vrmt_.lookup(d.pc());
        if (ve && ve->vreg == d.valVreg && ve->offset > 0)
            --ve->offset;
        d.bumpedVrmtOffset = false;
    }
    if (d.isValidation() && vrf_.isLive(d.valVreg))
        vrf_.setUsed(d.valVreg, d.valElem, false);
    if (d.wroteRename) {
        rt.set(d.inst().rd, d.prevRename);
        d.wroteRename = false;
    }
    if (d.touchedTl) {
        tl_.restore(d.pc(), d.tlSnap);
        d.touchedTl = false;
    }
}

void
SdvEngine::tick(Cycle now, DCachePorts &ports, MemHierarchy &mem)
{
    vrf_.setClock(now);
    datapath_.tick(now, ports, mem);
    if (vrf_.sweepPending())
        vrf_.sweepReleases(gmrbb_);
}

void
SdvEngine::finalize()
{
    datapath_.clear();
    vrf_.releaseAll();
}

void
SdvEngine::quiesce()
{
    sdv_assert(datapath_.numActive() == 0,
               "quiescing with vector instances in flight");
    datapath_.clear();
    vrf_.releaseAll();
    vrmt_.invalidateAll();
    shadow_ = {};
}

} // namespace sdv
