#include "core/core.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/hooks.hh"

namespace sdv {

Core::Core(const CoreConfig &cfg, const Program &prog)
    : cfg_(cfg), oracle_(prog, cfg.traceExec), mem_(cfg.mem),
      ports_(cfg.dcachePorts, cfg.widePorts, cfg.mem.l1dLineBytes),
      gshare_(cfg.gshareEntries, cfg.gshareHistoryBits),
      btb_(cfg.btbSets, cfg.btbWays), ras_(cfg.rasDepth),
      lsq_(cfg.lsqEntries), fuPool_(cfg.fu), engine_(cfg.engine),
      fetchPc_(prog.entry()), fetchQueue_(cfg.fetchQueueEntries),
      rob_(cfg.robEntries)
{
    // Speculative vector-element loads read their values from the
    // oracle memory image (sequentially correct state); conflicts with
    // later stores are caught by the Section 3.6 range check.
    engine_.datapath().setContext(this);
    engine_.vrf().setElemLedger(&ports_);
}

std::uint64_t
Core::readCommittedMemory(Addr addr, unsigned size) const
{
    return pendingStores_.overlay(oracle_.memory().read(addr, size),
                                  addr, size);
}

std::uint64_t
Core::specLoadValue(Addr addr, unsigned size) const
{
    const std::uint64_t raw = readCommittedMemory(addr, size);
    if (size == 4)
        return std::uint64_t(std::int64_t(std::int32_t(raw)));
    return raw;
}

void
Core::setRecorder(obs::TraceRecorder *rec)
{
#if SDV_OBS_ENABLED
    recorder_ = rec;
    engine_.setRecorder(rec);
    engine_.vrf().setRecorder(rec);
    mem_.mshrs().setRecorder(rec);
    if (rec)
        rec->setCycle(cycle_);
#else
    (void)rec;
#endif
}

DynInst *
Core::robFind(InstSeqNum seq) const
{
    if (rob_.empty() || seq < rob_.front().seq)
        return nullptr;
    const std::uint64_t idx = seq - rob_.front().seq;
    if (idx >= rob_.size())
        return nullptr;
    return const_cast<DynInst *>(&rob_[size_t(idx)]);
}

void
Core::tick()
{
    SDV_OBS_SET_CYCLE(recorder_, cycle_);

    ports_.beginCycle();
    fuPool_.beginCycle();
    cycleAccessDone_.clear();

    commitStage();
    completionStage();
    issueStage();
    engine_.tick(cycle_, ports_, mem_);
    decodeStage();
    fetchStage();

    ++cycle_;
}

// --- checkpoint / measurement boundary -------------------------------------

bool
Core::quiescent() const
{
    return rob_.empty() && iq_.empty() && completionHeap_.empty() &&
           parkedVals_.empty() && fetchQueue_.empty() &&
           replayQueue_.empty() && lsq_.size() == 0 &&
           pendingStores_.empty() && !fetchStalled_ && engine_.idle() &&
           mem_.mshrs().busyCount(cycle_) == 0;
}

void
Core::beginMeasurement()
{
    // Context-switch the transient vector state; the warm TL, caches
    // and predictors survive. Releasing the registers resolves every
    // outstanding element-load ledger entry, so the Figure-13 slot
    // pool must be fully folded afterwards.
    quiesceVectorState();

    // With every fill landed, expired MSHR entries behave identically
    // to free ones; clear them so the clock can rebase to zero.
    mem_.mshrs().clearEntries();

    cycle_ = 0;
    icacheReadyAt_ = 0;
    fig10Remaining_ = 0;
    stallBranchSeq_ = 0;

    // The measured region starts now: every statistic resets. The
    // commit hash and committedTotal_ deliberately keep accumulating —
    // end-of-run verification covers the whole program.
    stats_ = CoreStats{};
    ports_.resetStats();
    lsq_.resetStats();
    mem_.resetStats();
    btb_.resetStats();
    engine_.resetStats();
}

void
Core::quiesceVectorState()
{
    sdv_assert(quiescent(), "vector quiesce on a busy pipeline");
    // Transient-exposure probe (timing-channel experiments): what
    // speculative state is alive at the instant the boundary drops it.
    // beginMeasurement() zeroes these right after its own quiesce, so
    // only mid-run (--quiesce-interval) boundaries accumulate.
    ++stats_.quiesceEvents;
    const VecRegFile &vrf = engine_.vrf();
    std::uint64_t live_vregs = 0;
    std::uint64_t transient_elems = 0;
    vrf.forEachLive([&](VecRegRef ref) {
        ++live_vregs;
        const unsigned n = vrf.elemCount(ref);
        for (unsigned e = 0; e < n; ++e)
            if (vrf.isReady(ref, e) && !vrf.isValid(ref, e))
                ++transient_elems;
    });
    stats_.quiesceLiveVregs += live_vregs;
    stats_.quiesceTransientElems += transient_elems;
    SDV_OBS_EVENT(recorder_, obs::EventKind::Quiesce, fetchPc_,
                  live_vregs, transient_elems);
    engine_.quiesce();
    rt_.reset();
    sdv_assert(ports_.ledgerLiveRecords() == 0,
               "unresolved port ledger records at the quiesce point");
}

void
Core::saveWarmState(Serializer &ser) const
{
    sdv_assert(quiescent() && cycle_ == 0,
               "checkpoint capture outside a measurement boundary");
    ser.u64(fetchPc_);
    ser.u64(nextSeq_);
    ser.u64(commitHash_);
    ser.u64(committedTotal_);
    ser.b(haltCommitted_);
    oracle_.saveState(ser);
    mem_.saveState(ser);
    gshare_.saveState(ser);
    btb_.saveState(ser);
    ras_.saveState(ser);
    engine_.saveState(ser);
}

bool
Core::loadWarmState(Deserializer &des)
{
    // The image's memory is a delta over the program's load image,
    // which only a core that has not run yet still holds.
    sdv_assert(quiescent() && cycle_ == 0 && committedTotal_ == 0 &&
                   oracle_.instCount() == 0,
               "checkpoint restore into a core that is not fresh");
    fetchPc_ = des.u64();
    nextSeq_ = des.u64();
    commitHash_ = des.u64();
    committedTotal_ = des.u64();
    haltCommitted_ = des.b();
    oracle_.loadState(des);
    return mem_.loadState(des) && gshare_.loadState(des) &&
           btb_.loadState(des) && ras_.loadState(des) &&
           engine_.loadState(des) && des.ok();
}

// --- commit ---------------------------------------------------------------

void
Core::commitCommon(DynInst &d)
{
    // Figure 10: count instructions inside an open post-mispredict
    // window before possibly opening a new one below.
    if (fig10Remaining_ > 0) {
        ++stats_.postMispredictWindowInsts;
        if (d.isValidation())
            ++stats_.postMispredictReused;
        --fig10Remaining_;
    }

    ++stats_.committedInsts;
    ++committedTotal_;
    if (d.isLoad())
        ++stats_.committedLoads;
    if (d.isStore())
        ++stats_.committedStores;
    if (d.isControl()) {
        ++stats_.committedBranches;
        if (d.mispredicted) {
            ++stats_.branchMispredicts;
            fig10Remaining_ = cfg_.fig10WindowInsts;
        }
        engine_.onControlCommit(d);
    }
    if (d.isValidation()) {
        ++stats_.committedValidations;
        if (d.isLoad())
            ++stats_.committedLoadValidations;
        engine_.onValidationCommit(d);
    } else {
        engine_.onScalarWriterCommit(d);
    }
    if (d.inst().writesReg() || d.isValidation())
        rt_.onWriterCommit(d.inst().rd, d.seq);
    if (d.inst().isMem())
        lsq_.erase(&d);

    commitHash_ = (commitHash_ ^ d.pc()) * 1099511628211ULL;
    if (d.rec.halted)
        haltCommitted_ = true;
}

void
Core::commitStage()
{
    unsigned committed = 0;
    unsigned stores = 0;
    while (committed < cfg_.commitWidth && !rob_.empty()) {
        DynInst *d = &rob_.front();
        if (!d->completed)
            break;

        if (d->isStore()) {
            if (stores >= cfg_.maxStoresPerCycle)
                break;
            const auto grant = ports_.requestStoreWord(d->rec.addr);
            if (!grant.ok)
                break; // no port for the cache write this cycle
            mem_.storeAccess(d->rec.addr, cycle_);
            // This store's value is now architecturally committed.
            sdv_assert(!pendingStores_.empty() &&
                           pendingStores_.front().addr == d->rec.addr,
                       "pending-store FIFO out of sync");
            pendingStores_.popFront();
            ++stores;
            const bool conflict = engine_.onStoreCommit(*d);
            commitCommon(*d);
            rob_.popFront();
            ++committed;
            if (conflict) {
                ++stats_.storeConflictSquashes;
                squashAllInFlight();
                break;
            }
            continue;
        }

        commitCommon(*d);
        rob_.popFront();
        ++committed;
    }
}

void
Core::squashAllInFlight()
{
    SDV_OBS_EVENT(recorder_, obs::EventKind::Squash, fetchPc_,
                  rob_.size(), fetchQueue_.size());

    // Undo decode effects youngest-first.
    for (size_t i = rob_.size(); i-- > 0;) {
        engine_.undoDecode(rob_[i], rt_);
        ++stats_.squashedInsts;
    }

    // Collect the oracle records (oldest first) for replay through
    // fetch, including not-yet-decoded entries in the fetch queue.
    std::vector<ExecRecord> recs;
    recs.reserve(rob_.size() + fetchQueue_.size());
    for (size_t i = 0; i < rob_.size(); ++i)
        recs.push_back(rob_[i].rec);
    for (size_t i = 0; i < fetchQueue_.size(); ++i)
        recs.push_back(fetchQueue_[i].rec);
    for (auto it = recs.rbegin(); it != recs.rend(); ++it)
        replayQueue_.push_front(*it);

    rob_.clear();
    iq_.clear();
    completionHeap_.clear();
    parkedVals_.clear();
    fetchQueue_.clear();
    lsq_.clear();

    fetchStalled_ = false;
    stallBranchSeq_ = 0;
    icacheReadyAt_ = 0;
    if (!replayQueue_.empty())
        fetchPc_ = replayQueue_.front().pc;
}

// --- completion monitoring -----------------------------------------------

namespace {

/** Min-heap on readyCycle (std::*_heap build max-heaps, so invert). */
struct CompletionLater
{
    bool
    operator()(const DynInst *a, const DynInst *b) const
    {
        return a->readyCycle > b->readyCycle;
    }
};

} // namespace

void
Core::scheduleCompletion(DynInst *d)
{
    completionHeap_.push_back(d);
    std::push_heap(completionHeap_.begin(), completionHeap_.end(),
                   CompletionLater{});
}

void
Core::completionStage()
{
    // Scalar completions that matured: pop the heap instead of
    // rescanning every in-flight instruction.
    while (!completionHeap_.empty() &&
           completionHeap_.front()->readyCycle <= cycle_) {
        std::pop_heap(completionHeap_.begin(), completionHeap_.end(),
                      CompletionLater{});
        DynInst *d = completionHeap_.back();
        completionHeap_.pop_back();
        d->completed = true;
        wakeConsumers(d);
        maybeUnstall(d);
    }

    // Parked validations, in decode order: complete those whose
    // element computed, re-execute in scalar mode those whose register
    // died (the element will never be computed), keep the rest.
    std::size_t kept = 0;
    for (DynInst *d : parkedVals_) {
        switch (engine_.validationStatus(*d)) {
          case ValStatus::Ready:
            d->completed = true;
            d->readyCycle = cycle_;
            wakeConsumers(d);
            maybeUnstall(d);
            break;
          case ValStatus::Dead:
            engine_.fallbackValidation(*d);
            if (d->pendingDeps == 0)
                insertReady(d);
            break;
          case ValStatus::Waiting:
            parkedVals_[kept++] = d;
            break;
        }
    }
    parkedVals_.resize(kept);
}

// --- wakeup -----------------------------------------------------------------

void
Core::linkProducer(DynInst &d, InstSeqNum dep, unsigned slot)
{
    DynInst *p = robFind(dep);
    sdv_assert(p && !p->completed, "dependence on a settled producer");
    d.nextWaiter[slot] = p->waiters;
    p->waiters = &d;
    ++d.pendingDeps;
}

void
Core::wakeConsumers(DynInst *p)
{
    DynInst *w = p->waiters;
    p->waiters = nullptr;
    while (w) {
        DynInst *next = w->nextWaiter[w->dep1 == p->seq ? 0 : 1];
        if (--w->pendingDeps == 0 && w->waitsToIssue())
            insertReady(w);
        w = next;
    }
}

void
Core::insertReady(DynInst *d)
{
    auto pos = std::lower_bound(
        iq_.begin(), iq_.end(), d->seq,
        [](const DynInst *a, InstSeqNum s) { return a->seq < s; });
    iq_.insert(pos, d);
}

std::string
Core::auditScheduler() const
{
    // Consumers linked to each producer, indexed like the ROB.
    std::vector<std::size_t> linked(rob_.size(), 0);
    std::vector<const DynInst *> ready;
    std::size_t inFlight = 0; ///< issued, not-completed entries
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const DynInst &e = rob_[i];
        inFlight += e.issued && !e.completed;
        unsigned pending = 0;
        const InstSeqNum deps[2] = {e.dep1, e.dep2 == e.dep1 ? 0 : e.dep2};
        for (InstSeqNum dep : deps) {
            const DynInst *p = dep == 0 ? nullptr : robFind(dep);
            if (p && !p->completed) {
                ++pending;
                ++linked[std::size_t(p->seq - rob_.front().seq)];
            }
        }
        if (e.pendingDeps != pending)
            return detail::concat("seq ", e.seq, ": pendingDeps ",
                                  unsigned(e.pendingDeps), ", expected ",
                                  pending);
        if (e.waitsToIssue() && producerCompleted(e.dep1) &&
            producerCompleted(e.dep2))
            ready.push_back(&e);
    }

    // Each waiter list holds exactly the consumers linked to its
    // producer: live entries that name it, youngest first, as many
    // as the scan above counted.
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const DynInst &p = rob_[i];
        std::size_t n = 0;
        InstSeqNum prev = ~InstSeqNum(0);
        for (const DynInst *w = p.waiters; w;
             w = w->nextWaiter[w->dep1 == p.seq ? 0 : 1]) {
            if (robFind(w->seq) != w || w->seq >= prev ||
                (w->dep1 != p.seq && w->dep2 != p.seq) ||
                ++n > linked[i])
                return detail::concat("seq ", p.seq,
                                      ": waiter list holds seq ", w->seq,
                                      " out of place");
            prev = w->seq;
        }
        if (n != linked[i])
            return detail::concat("seq ", p.seq, ": waiter list holds ", n,
                                  " consumers, expected ", linked[i]);
    }

    if (iq_.size() != ready.size() ||
        !std::equal(iq_.begin(), iq_.end(), ready.begin()))
        return detail::concat("iq_ holds ", iq_.size(),
                              " entries, expected the ", ready.size(),
                              " dep-ready waiting ones in seq order");

    // The completion heap holds each issued, not-completed entry once.
    std::vector<char> inHeap(rob_.size(), 0);
    for (const DynInst *d : completionHeap_) {
        const DynInst *e = robFind(d->seq);
        if (e != d || !e->issued || e->completed ||
            inHeap[std::size_t(e->seq - rob_.front().seq)]++)
            return detail::concat("completion heap holds seq ", d->seq,
                                  " out of place");
    }
    if (completionHeap_.size() != inFlight)
        return detail::concat("completion heap holds ",
                              completionHeap_.size(), " entries, expected ",
                              inFlight, " issued, not-completed ones");
    if (!std::is_heap(completionHeap_.begin(), completionHeap_.end(),
                      CompletionLater{}))
        return "completion heap is not a min-heap on readyCycle";
    return {};
}

// --- issue ------------------------------------------------------------------

void
Core::issueStage()
{
    // iq_ holds only dep-ready entries: walk them oldest first.
    unsigned issued = 0;
    auto it = iq_.begin();
    while (it != iq_.end() && issued < cfg_.issueWidth) {
        DynInst *d = *it;
        bool remove = false;

        if (d->isLoad()) {
            const LoadCheck chk = lsq_.checkLoad(d);
            if (chk == LoadCheck::Forward) {
                d->issued = true;
                d->readyCycle = cycle_ + 1;
                lsq_.noteForward();
                ++stats_.loadForwards;
                remove = true;
            } else if (chk == LoadCheck::Ready) {
                const auto grant = ports_.requestLoadWord(d->rec.addr);
                if (grant.ok) {
                    Cycle done = 0;
                    bool ok = true;
                    if (grant.newAccess) {
                        ok = mem_.loadAccess(d->rec.addr, cycle_, done);
                        if (ok) {
                            cycleAccessDone_.emplace_back(grant.accessId,
                                                          done);
                            ++stats_.scalarLoadAccesses;
                        }
                    } else {
                        // Riding along a wide access made earlier this
                        // cycle.
                        done = neverCycle;
                        for (const auto &[id, c] : cycleAccessDone_)
                            if (id == grant.accessId)
                                done = c;
                        if (done == neverCycle)
                            ok = mem_.loadAccess(d->rec.addr, cycle_,
                                                 done);
                    }
                    if (ok) {
                        d->issued = true;
                        d->readyCycle = done;
                        remove = true;
                    }
                }
            } else {
                lsq_.noteConflictStall();
            }
        } else if (d->isStore()) {
            // Address generation; the memory write happens at commit
            // through a port.
            d->issued = true;
            d->readyCycle = cycle_ + 1;
            remove = true;
        } else {
            const OpClass cls = d->inst().info().opClass;
            if (fuPool_.tryIssue(cls)) {
                d->issued = true;
                d->readyCycle = cycle_ + opClassLatency(cls);
                remove = true;
            }
        }

        if (remove) {
            scheduleCompletion(d);
            it = iq_.erase(it);
            ++issued;
        } else {
            ++it;
        }
    }
}

// --- decode / rename / dispatch --------------------------------------------

void
Core::decodeStage()
{
    unsigned decoded = 0;
    while (decoded < cfg_.decodeWidth && !fetchQueue_.empty()) {
        FetchedInst &f = fetchQueue_.front();
        if (rob_.full()) {
            ++stats_.robFullStalls;
            break;
        }
        if (f.rec.inst.isMem() && lsq_.full()) {
            ++stats_.lsqFullStalls;
            break;
        }

        // Claim the next ROB slot in place; a blocked decode returns
        // the slot below without the entry ever becoming visible.
        DynInst &d = rob_.emplaceBack();
        d.seq = nextSeq_;
        d.rec = f.rec;
        d.mispredicted = f.mispredicted;

        // Capture scalar dependences before the engine rewrites the
        // rename entries. The entry itself is excluded from
        // producerCompleted by seq: it is the ROB tail, so idx ==
        // size-1 and completed == false, never consulted for deps.
        const OpInfo &info = f.rec.inst.info();
        if (info.readsRs1 && f.rec.inst.rs1 != zeroReg) {
            const InstSeqNum w = rt_.entry(f.rec.inst.rs1).lastWriter;
            if (w != 0 && !producerCompleted(w))
                d.dep1 = w;
        }
        if (info.readsRs2 && f.rec.inst.rs2 != zeroReg) {
            const InstSeqNum w = rt_.entry(f.rec.inst.rs2).lastWriter;
            if (w != 0 && !producerCompleted(w))
                d.dep2 = w;
        }

        const DecodeAction action = engine_.decode(d, rt_, *this);
        if (action == DecodeAction::Blocked) {
            rob_.popBack(); // retry next cycle; d was left unmodified
            ++stats_.decodeBlockCycles;
            break;
        }

        // Wait on each distinct in-flight producer: it wakes d when
        // it completes.
        if (d.dep1 != 0)
            linkProducer(d, d.dep1, 0);
        if (d.dep2 != 0 && d.dep2 != d.dep1)
            linkProducer(d, d.dep2, 1);

        ++nextSeq_;
        if (f.mispredicted)
            stallBranchSeq_ = d.seq;

        if (f.rec.inst.isMem())
            lsq_.insert(&d);

        if (d.isValidation()) {
            // Parked until its target element resolves; polled by the
            // completion stage. No FU, no issue slot.
            parkedVals_.push_back(&d);
        } else if (info.opClass == OpClass::None) {
            d.completed = true;
            d.readyCycle = cycle_;
        } else {
            if (d.pendingDeps == 0)
                iq_.push_back(&d); // the youngest entry: seq order holds
        }

        fetchQueue_.popFront();
        ++decoded;
    }
}

// --- fetch ---------------------------------------------------------------------

bool
Core::fetchStallOnValidation() const
{
    if (stallBranchSeq_ == 0)
        return false; // branch not renamed yet (still in fetch queue)
    const DynInst *b = robFind(stallBranchSeq_);
    if (!b || b->completed || b->issued)
        return false; // resolving on an FU, not dep-blocked
    for (InstSeqNum dep : {b->dep1, b->dep2}) {
        if (dep == 0 || producerCompleted(dep))
            continue;
        const DynInst *p = robFind(dep);
        if (p && p->isValidation())
            return true;
    }
    return false;
}

void
Core::predictControl(FetchedInst &f)
{
    const Instruction &in = f.rec.inst;
    const Addr pc = f.rec.pc;
    const Addr fallthrough = pc + instBytes;

    if (in.isCondBranch()) {
        const bool predTaken = gshare_.predictAndUpdate(pc, f.rec.taken);
        f.mispredicted = predTaken != f.rec.taken;
        return;
    }

    switch (in.op) {
      case Opcode::BR:
        break;
      case Opcode::JAL:
        ras_.push(fallthrough);
        break;
      case Opcode::JALR: {
        ras_.push(fallthrough);
        Addr t = fallthrough;
        if (!btb_.lookup(pc, t))
            t = fallthrough;
        f.mispredicted = t != f.rec.nextPc;
        btb_.update(pc, f.rec.nextPc);
        break;
      }
      case Opcode::JR: {
        Addr t = 0;
        if (!ras_.pop(t) && !btb_.lookup(pc, t))
            t = fallthrough;
        f.mispredicted = t != f.rec.nextPc;
        btb_.update(pc, f.rec.nextPc);
        break;
      }
      default:
        panic("unhandled control op in predictControl");
    }
}

void
Core::fetchStage()
{
    if (fetchStalled_) {
        ++stats_.fetchStallCycles;
        if (fetchStallOnValidation())
            ++stats_.fetchStallValWaitCycles;
        return;
    }
    if (fetchExhausted())
        return; // nothing left to fetch (program or fetch limit)
    if (cycle_ < icacheReadyAt_)
        return; // I-cache miss in progress
    if (fetchQueue_.size() >= cfg_.fetchQueueEntries)
        return;

    const Cycle ready = mem_.fetchAccess(fetchPc_, cycle_);
    if (ready > cycle_ + cfg_.mem.l1iHitCycles) {
        icacheReadyAt_ = ready;
        SDV_OBS_EVENT(recorder_, obs::EventKind::IcacheRefill, fetchPc_,
                      ready);
        return;
    }

    unsigned fetched = 0;
    while (fetched < cfg_.fetchWidth &&
           fetchQueue_.size() < cfg_.fetchQueueEntries) {
        const bool replay = !replayQueue_.empty();
        if (!replay &&
            (oracle_.halted() ||
             (fetchLimit_ != 0 && oracle_.instCount() >= fetchLimit_)))
            break;

        // The oracle executes straight into the queue slot: no
        // intermediate ExecRecord copies on the fetch hot path.
        FetchedInst &f = fetchQueue_.emplaceBack();
        if (replay) {
            f.rec = replayQueue_.front();
            sdv_assert(f.rec.pc == fetchPc_, "replay pc mismatch");
            replayQueue_.pop_front();
        } else {
            sdv_assert(oracle_.state().pc == fetchPc_,
                       "oracle pc diverged from fetch pc");
            oracle_.stepInto(f.rec);
            if (f.rec.isStore)
                pendingStores_.push(f.rec.addr, f.rec.size,
                                    f.rec.prevMemValue);
        }
        if (f.rec.inst.isControl())
            predictControl(f);
        ++fetched;

        if (f.rec.halted)
            break;
        if (f.mispredicted) {
            // No wrong-path fetch: stall until the branch resolves.
            fetchStalled_ = true;
            stallBranchSeq_ = 0; // assigned at decode
            break;
        }
        fetchPc_ = f.rec.nextPc;
        if (f.rec.inst.isControl() && f.rec.taken)
            break; // at most one taken branch per fetch group
    }
}

} // namespace sdv
