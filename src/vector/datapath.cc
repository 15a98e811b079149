#include "vector/datapath.hh"

#include <algorithm>

#include "common/log.hh"
#include "isa/alu.hh"

namespace sdv {

VectorDatapath::VectorDatapath(const VectorFuConfig &cfg, VecRegFile &vrf)
    : cfg_(cfg), vrf_(vrf)
{
    for (unsigned c = 0; c <= unsigned(OpClass::None); ++c)
        fuSlots_[c] = fuBandwidth(OpClass(c));
}

void
VectorDatapath::spawnLoad(VecRegRef dest, Addr base, std::int64_t stride,
                          unsigned elem_bytes, unsigned elem_count)
{
    VecInstance inst;
    inst.dest = dest;
    inst.elemCount = elem_count;
    inst.isLoad = true;
    inst.baseAddr = base;
    inst.stride = stride;
    inst.elemBytes = elem_bytes;
    active_.push_back(inst);
    ++stats_.instancesSpawned;
    ++stats_.loadInstances;
}

void
VectorDatapath::spawnArith(Opcode op, std::int32_t imm, VecRegRef dest,
                           const SrcSpec &src1, const SrcSpec &src2,
                           unsigned elem_count)
{
    VecInstance inst;
    inst.kern = elemKernel(op);
    inst.cls = opInfo(op).opClass;
    sdv_assert(inst.kern, "vectorized op without element semantics: ",
               mnemonic(op));
    inst.imm = imm;
    inst.dest = dest;
    inst.src1 = src1;
    inst.src2 = src2;
    inst.elemCount = elem_count;
    // A captured-scalar operand still in flight parks the instance in
    // the vector instruction queue (Section 3.4).
    for (const SrcSpec *s : {&src1, &src2})
        if (s->isScalar() && s->depSeq > inst.scalarDep)
            inst.scalarDep = s->depSeq;
    active_.push_back(inst);
    ++stats_.instancesSpawned;
    ++stats_.arithInstances;
    if ((src1.isVector() && src1.srcOffset != 0) ||
        (src2.isVector() && src2.srcOffset != 0))
        ++stats_.instancesWithNonzeroSrcOffset;
}

void
VectorDatapath::abortByDest(VecRegRef dest)
{
    for (auto &inst : active_) {
        if (inst.dest == dest && !inst.aborted) {
            inst.aborted = true;
            ++stats_.instancesAborted;
        }
    }
}

VectorDatapath::InstStep
VectorDatapath::step(const VecInstance &inst) const
{
    if (inst.done() || !vrf_.isLive(inst.dest))
        return InstStep::Retire;
    if (inst.isLoad)
        return InstStep::Act; // loads arbitrate for ports every cycle
    bool ready = true;
    for (const SrcSpec *src : {&inst.src1, &inst.src2}) {
        if (!src->isVector())
            continue;
        const VecRegFile::SrcElem e =
            vrf_.srcElem(src->vreg, src->srcOffset + inst.nextElem);
        if (e == VecRegFile::SrcElem::Dead)
            return InstStep::CascadeAbort;
        ready = ready && e == VecRegFile::SrcElem::Ready;
    }
    // A captured-scalar operand parks the instance until its producer
    // completes; that completion is the core's scheduled event.
    if (inst.scalarDep != 0 &&
        (!ctx_ || !ctx_->seqCompleted(inst.scalarDep)))
        return InstStep::Wait;
    // Otherwise it waits for a source element's scheduled completion.
    return ready ? InstStep::Act : InstStep::Wait;
}

std::uint64_t
VectorDatapath::srcValue(const SrcSpec &src, unsigned k) const
{
    switch (src.kind) {
      case SrcSpec::Kind::None:
        return 0;
      case SrcSpec::Kind::Scalar:
        return src.value;
      case SrcSpec::Kind::Vector:
        return vrf_.elemValue(src.vreg, src.srcOffset + k);
    }
    panic("unreachable src kind");
}

unsigned
VectorDatapath::fuBandwidth(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu:
        return cfg_.intAlu;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return cfg_.intMulDiv;
      case OpClass::FpAdd:
        return cfg_.fpAdd;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return cfg_.fpMulDiv;
      default:
        return 0;
    }
}

void
VectorDatapath::tick(Cycle now, DCachePorts &ports, MemHierarchy &mem)
{
    if (active_.empty() && completions_.empty())
        return; // nothing in flight this cycle

    // 1. Land completions due this cycle.
    for (auto it = completions_.begin(); it != completions_.end();) {
        if (it->ready <= now) {
            if (vrf_.isLive(it->dest)) {
                vrf_.setData(it->dest, it->elem, it->value);
                if (it->loadId != 0)
                    vrf_.setElemLoadId(it->dest, it->elem, it->loadId);
                ++stats_.elemsComputed;
            } else if (it->loadId != 0) {
                // Register vanished before the fill landed: the ledger
                // should not keep waiting for a resolution.
                ports.resolveElem(it->loadId, false);
            }
            *it = completions_.back();
            completions_.pop_back();
        } else {
            ++it;
        }
    }

    // 2. Retire finished or aborted instances and those whose
    //    destination died. Cascade-abort instances whose sources died
    //    (killed, freed or stolen registers): their remaining elements
    //    can never be computed, so kill the destination too, letting
    //    in-flight validations fall back to scalar execution instead of
    //    waiting forever. Consumers follow their producers in active_,
    //    so one pass carries a kill down a whole chain.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        VecInstance &inst = active_[i];
        const InstStep s = step(inst);
        if (s == InstStep::CascadeAbort) {
            inst.aborted = true;
            vrf_.kill(inst.dest);
            ++stats_.instancesAborted;
        } else if (s != InstStep::Retire) {
            if (kept != i)
                active_[kept] = inst;
            ++kept;
        }
    }
    active_.resize(kept);

    // 3. Initiate element loads (after scalar demand issue; the port
    //    object tracks per-cycle capacity).
    accessDone_.clear();
    unsigned load_slots = cfg_.loadPorts;
    for (auto &inst : active_) {
        if (!inst.isLoad || step(inst) != InstStep::Act)
            continue;
        while (!inst.done() && load_slots > 0) {
            const Addr addr = inst.elemAddr(inst.nextElem);
            const auto grant =
                ports.requestLoadWord(addr, /*speculative=*/true);
            if (!grant.ok) {
                ++stats_.elemLoadPortStalls;
                load_slots = 0;
                break;
            }
            const ElemLoadId lid = grant.elemLoadId();
            Cycle done_at = 0;
            if (grant.newAccess) {
                if (!mem.loadAccess(addr, now, done_at)) {
                    // MSHR full: the claimed port slot is wasted this
                    // cycle and the element retries next cycle as a
                    // new load, so this one resolves (unused) now or
                    // its ledger record leaks.
                    ports.resolveElem(lid, false);
                    ++stats_.elemLoadMshrStalls;
                    load_slots = 0;
                    break;
                }
                accessDone_.emplace_back(grant.accessId, done_at);
                ++stats_.elemLoadAccessesIssued;
            } else {
                done_at = neverCycle;
                for (const auto &[id, c] : accessDone_)
                    if (id == grant.accessId)
                        done_at = c;
                // Riding on an access made by the scalar pipeline this
                // cycle: its completion is not tracked here; charge a
                // fresh (hit-latency) lookup for the element instead.
                if (done_at == neverCycle &&
                    !mem.loadAccess(addr, now, done_at)) {
                    ports.resolveElem(lid, false);
                    ++stats_.elemLoadMshrStalls;
                    load_slots = 0;
                    break;
                }
                ++stats_.elemLoadsRideAlong;
            }

            Completion c;
            c.ready = done_at;
            c.dest = inst.dest;
            c.elem = inst.nextElem;
            c.value = ctx_ ? ctx_->specLoadValue(addr, inst.elemBytes) : 0;
            c.loadId = lid;
            completions_.push_back(c);
            ++inst.nextElem;
            --load_slots;
        }
        if (load_slots == 0)
            break;
    }

    // 4. Initiate arithmetic elements, one per instance per cycle,
    //    bounded by the per-class FU bandwidth (table precomputed at
    //    construction; bandwidth replenishes fully every cycle).
    unsigned slots[unsigned(OpClass::None) + 1];
    std::copy(std::begin(fuSlots_), std::end(fuSlots_),
              std::begin(slots));

    for (auto &inst : active_) {
        if (inst.isLoad || step(inst) != InstStep::Act)
            continue;
        inst.scalarDep = 0; // its producer completed: stop asking
        unsigned &slot = slots[unsigned(inst.cls)];
        if (slot == 0)
            continue;
        const unsigned k = inst.nextElem;

        Completion c;
        c.ready = now + opClassLatency(inst.cls);
        c.dest = inst.dest;
        c.elem = k;
        // The timing model initiates one element per instance per
        // cycle, so the batched kernel runs with n = 1 here — still a
        // straight call through the spawn-resolved pointer, no opcode
        // switch. BM_SimdElementBatch exercises the n > 1 form.
        const std::uint64_t a = srcValue(inst.src1, k);
        const std::uint64_t b = srcValue(inst.src2, k);
        std::uint64_t value;
        inst.kern(&value, &a, &b, inst.imm, 1);
        c.value = value;
        completions_.push_back(c);
        ++inst.nextElem;
        --slot;
    }
}

void
VectorDatapath::clear()
{
    active_.clear();
    completions_.clear();
}

} // namespace sdv
