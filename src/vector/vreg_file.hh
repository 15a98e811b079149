/**
 * @file
 * The vector physical register file of the speculative dynamic
 * vectorization mechanism (Section 3.3 of the paper).
 *
 * Each register holds `vlen` 64-bit elements. Every element carries the
 * paper's four flags:
 *   V (Valid)  - the validation associated with the element committed
 *   R (Ready)  - the element's value has been computed / loaded
 *   U (Used)   - a validation is in flight (dispatched, not committed)
 *   F (Free)   - the element is dead (its logical register redefined)
 * plus each register stores the MRBB tag (PC of the most recently
 * committed backward branch at allocation time) and, for load-produced
 * registers, the first/last byte addresses covered (used by the store
 * coherence check of Section 3.6).
 *
 * A register is released when either freeing condition of Section 3.3
 * holds; the file records the Figure 15 computed/validated ledger at
 * that moment.
 *
 * Allocation and the live-register walk read each register's
 * `allocated` flag lowest-index-first; the store check walks, in the
 * same order, a bitmask of the live registers that hold a load range
 * (audited by auditRanged()). Consumers poll element state:
 * the datapath through srcElem(), the core's parked validations
 * through the engine's validation status.
 */

#ifndef SDV_VECTOR_VREG_FILE_HH
#define SDV_VECTOR_VREG_FILE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "mem/port.hh"

namespace sdv {

namespace obs {
class TraceRecorder;
} // namespace obs

/** Reference to a vector register incarnation (id + generation). */
struct VecRegRef
{
    VecRegId reg = invalidVecReg;
    std::uint32_t gen = 0;

    /** @return true when this reference names a register at all. */
    bool valid() const { return reg != invalidVecReg; }

    bool operator==(const VecRegRef &o) const = default;
};

/** Figure 15 ledger: average element fates at register release, plus
 *  the PR 5 lifetime/release-cause attribution counters (all u64 so
 *  the sampled-sweep aggregation can scale the struct as a flat span). */
struct VecRegFateStats
{
    std::uint64_t regsReleased = 0;
    std::uint64_t elemsComputedUsed = 0;    ///< R and V at release
    std::uint64_t elemsComputedNotUsed = 0; ///< R but never validated
    std::uint64_t elemsNotComputed = 0;     ///< never became R

    // --- steady-state attribution (PR 5) ---------------------------------
    std::uint64_t lifetimeCycles = 0;   ///< sum of alloc->release ages
    std::uint64_t releasedCond1 = 0;    ///< all elements computed+freed
    std::uint64_t releasedCond2 = 0;    ///< MRBB condition under pressure
    std::uint64_t releasedKilled = 0;   ///< killed, validations drained
    std::uint64_t releasedBulk = 0;     ///< releaseAll (quiesce/finalize)

    /** Register lifetime histogram (alloc->release cycles), log-ish
     *  buckets: <8, <32, <128, <512, <2K, <8K, <32K, rest. Feeds the
     *  per-config transient-exposure report of the timing-channel
     *  experiments. */
    std::uint64_t lifetimeHist[8] = {};

    double
    avgComputedUsed() const
    {
        return regsReleased ? double(elemsComputedUsed) / regsReleased : 0;
    }
    double
    avgComputedNotUsed() const
    {
        return regsReleased ? double(elemsComputedNotUsed) / regsReleased
                            : 0;
    }
    double
    avgNotComputed() const
    {
        return regsReleased ? double(elemsNotComputed) / regsReleased : 0;
    }
    double
    avgLifetimeCycles() const
    {
        return regsReleased ? double(lifetimeCycles) / regsReleased : 0;
    }
};

/** The vector register file. */
class VecRegFile
{
  public:
    /**
     * @param num_regs number of vector registers (128 in the paper)
     * @param vlen elements per register (4 in the paper)
     */
    explicit VecRegFile(unsigned num_regs = 128, unsigned vlen = 4);

    /** @return elements per register. */
    unsigned vlen() const { return vlen_; }

    /** @return total register count. */
    unsigned numRegs() const { return numRegs_; }

    /** @return number of currently free registers (a count over the
     *  file: telemetry reads it once per sample). */
    unsigned numFree() const;

    /**
     * Allocate the lowest-index free register, or, when none is free,
     * reclaim the lowest-index condition-2 candidate. The tiny-VRF
     * ablation columns depend on that order.
     *
     * When no register is free, the Section 3.3 condition-2 candidates
     * (all elements computed, every validated element freed, nothing in
     * use, allocating loop terminated per MRBB != GMRBB) are reclaimed
     * on demand. Evaluating condition 2 lazily — at allocation pressure
     * rather than eagerly every cycle — is required for nested loops:
     * an inner loop's backward branch changes GMRBB transiently, and an
     * eager reading would free outer-loop registers before their first
     * validation.
     *
     * @param mrbb current GMRBB value (most recent committed backward
     *        branch), stored as the register's MRBB tag and used for
     *        the lazy condition-2 reclamation
     * @return a valid reference, or an invalid one when none are free
     */
    VecRegRef allocate(Addr mrbb);

    /** @return true when @p ref names the live incarnation. */
    bool
    isLive(VecRegRef ref) const
    {
        if (!ref.valid() || ref.reg >= numRegs_)
            return false;
        const Reg &r = regs_[ref.reg];
        return r.allocated && r.gen == ref.gen;
    }

    // --- element data / flags ------------------------------------------

    /** Record a computed element value (sets R). */
    void setData(VecRegRef ref, unsigned elem, std::uint64_t value);

    /** @return element data (element must be R). */
    std::uint64_t data(VecRegRef ref, unsigned elem) const;

    /** @return true when element @p elem is computed (R). */
    bool isReady(VecRegRef ref, unsigned elem) const;

    /** Set/clear the U (validation in flight) flag. */
    void setUsed(VecRegRef ref, unsigned elem, bool used);

    /** @return true when any element has its U flag set. */
    bool anyUsed(VecRegRef ref) const;

    /** Mark the element validated (validation committed): V=1, U=0. */
    void setValid(VecRegRef ref, unsigned elem);

    /** @return the V flag. */
    bool isValid(VecRegRef ref, unsigned elem) const;

    /** Mark the element dead (F=1). */
    void setFree(VecRegRef ref, unsigned elem);

    // --- instance metadata ----------------------------------------------

    /**
     * Bound the number of elements this incarnation will ever compute
     * (vlen minus the largest source offset, Section 3.4). Defaults to
     * vlen at allocation.
     */
    void setElemCount(VecRegRef ref, unsigned count);

    /** @return the computable element count. */
    unsigned elemCount(VecRegRef ref) const;

    /** Record the memory range covered by a load-produced register. */
    void setAddrRange(VecRegRef ref, Addr first, Addr last,
                      unsigned elem_bytes);

    /**
     * @return true when the store to [@p lo, @p hi] overlaps the
     * register's recorded load range.
     */
    bool rangeOverlaps(VecRegRef ref, Addr lo, Addr hi) const;

    /** Run @p fn over every live register in ascending index order.
     *  @p fn may release the register it is given. */
    template <typename Fn>
    void
    forEachLive(Fn &&fn) const
    {
        for (unsigned i = 0; i < numRegs_; ++i)
            if (regs_[i].allocated)
                fn(VecRegRef{VecRegId(i), regs_[i].gen});
    }

    /**
     * Run @p fn over every live register that holds a load range (the
     * registers a committed store can conflict with, Section 3.6), in
     * ascending index order, through a bitmask of them. @p fn may
     * release or kill the register it is given.
     */
    template <typename Fn>
    void
    forEachRanged(Fn &&fn) const
    {
        for (std::size_t w = 0; w < rangedMask_.size(); ++w) {
            std::uint64_t bits = rangedMask_[w];
            while (bits) {
                const unsigned b = countTrailingZeros(bits);
                const unsigned i = unsigned(w * 64 + b);
                fn(VecRegRef{VecRegId(i), regs_[i].gen});
                // Re-read the word: @p fn may have released a register
                // above this one.
                bits = rangedMask_[w] & (~std::uint64_t(1) << b);
            }
        }
    }

    // --- fused hot-path queries ----------------------------------------
    // The datapath polls every active instance every cycle; these fold
    // the liveness + uniformity + range + flag checks into one register
    // lookup each instead of four assert-guarded accessor calls.

    /** The state of a source element, as a consumer sees it. */
    enum class SrcElem : std::uint8_t
    {
        Dead,    ///< can never be computed
        Pending, ///< not computed yet
        Ready,   ///< computed and readable
    };

    /**
     * @return the state of source element @p elem of @p ref (element 0
     * for uniform registers, which hold one value). Dead when the
     * incarnation is dead or killed, or when a non-uniform element lies
     * beyond the register's computable count.
     */
    SrcElem
    srcElem(VecRegRef ref, unsigned elem) const
    {
        if (!isLive(ref))
            return SrcElem::Dead;
        const Reg &r = regs_[ref.reg];
        if (r.killed || (!r.uniform && elem >= r.elemCount))
            return SrcElem::Dead;
        const unsigned e = r.uniform ? 0 : elem;
        return (r.rMask >> e) & 1 ? SrcElem::Ready : SrcElem::Pending;
    }

    /** The target element of a parked validation, as the core sees it
     *  (SdvEngine::validationStatus). */
    enum class ValElem : std::uint8_t
    {
        Ready,   ///< computed: the validation may complete
        Waiting, ///< not computed yet
        Dead,    ///< can never be computed: fall back to scalar
    };

    /**
     * @return the state of element @p elem of @p ref for the validation
     * waiting on it: Dead when the incarnation is dead, else Ready when
     * the element is computed (even on a killed register), else Dead
     * when killed, else Waiting.
     */
    ValElem
    valElem(VecRegRef ref, unsigned elem) const
    {
        if (!isLive(ref))
            return ValElem::Dead;
        sdv_assert(elem < vlen_, "element out of range");
        const Reg &r = regs_[ref.reg];
        if ((r.rMask >> elem) & 1)
            return ValElem::Ready;
        return r.killed ? ValElem::Dead : ValElem::Waiting;
    }

    /** @return the source element's value (element 0 when uniform);
     *  srcElem() must report it Ready. */
    std::uint64_t
    elemValue(VecRegRef ref, unsigned elem) const
    {
        const Reg &r = regs_[ref.reg];
        return r.elems[r.uniform ? 0 : elem].data;
    }

    /** Associate the port-ledger id of a speculative element load. */
    void setElemLoadId(VecRegRef ref, unsigned elem, ElemLoadId id);

    /**
     * Mark the incarnation uniform: all its elements are known to hold
     * the same value (a stride-0 load, or arithmetic whose vector
     * sources are all uniform). Validation matching may then accept a
     * source element offset that does not advance in lockstep.
     */
    void setUniform(VecRegRef ref, bool uniform);

    /** @return the uniform flag. */
    bool isUniform(VecRegRef ref) const;

    /**
     * Kill the incarnation (VRMT entry invalidated by a store conflict
     * or operand mismatch): no further elements will be computed and
     * the register frees as soon as no validation is in flight.
     */
    void kill(VecRegRef ref);

    /** @return true when the incarnation was killed. */
    bool isKilled(VecRegRef ref) const;

    // --- freeing -----------------------------------------------------------

    /**
     * Apply the freeing conditions of Section 3.3 (plus release of
     * killed registers with no in-flight validation).
     *
     * @param ref register to consider
     * @param gmrbb current GMRBB
     * @param allow_cond2 also consider the MRBB-based condition 2
     *        (only done under allocation pressure; see allocate())
     * @retval true when the register was released
     */
    bool tryRelease(VecRegRef ref, Addr gmrbb, bool allow_cond2 = false);

    /**
     * Check the incremental sweep against its definition: every
     * allocated register that condition 1 or the killed rule would
     * release now is on the candidate list, and the dedup flags mark
     * exactly the listed registers, each once. A test hook: it holds
     * after every Core::tick.
     * @return the first mismatch as text, or empty when they agree
     */
    std::string auditSweep(Addr gmrbb) const;

    /**
     * Check forEachRanged()'s bitmask against its definition: a bit is
     * set exactly for the allocated registers that hold a load range.
     * A test hook, like auditSweep().
     * @return the first mismatch as text, or empty when they agree
     */
    std::string auditRanged() const;

    /**
     * Try to release registers by condition 1 / killed state. Runs once
     * per cycle, so it only examines the candidate set — registers
     * whose flags changed since the last sweep. A register's
     * releasability under these conditions changes only through the
     * flag mutators, each of which re-marks its register, so the
     * incremental sweep releases at exactly the same cycle a full scan
     * would. @return count freed.
     */
    unsigned sweepReleases(Addr gmrbb);

    /** @return true while flag changes await the next sweepReleases()
     *  pass (a pending sweep keeps the engine from being idle). */
    bool sweepPending() const { return !sweepCandidates_.empty(); }

    /** Release everything (end of simulation), recording fates. */
    void releaseAll();

    /**
     * Release a register allocated by a squashed decode: frees it
     * without recording Figure 15 fates (the incarnation never existed
     * architecturally) while still resolving its element-load ledger
     * entries as unused.
     */
    void releaseSquashed(VecRegRef ref);

    /** Wire the port network whose element-load ledger is resolved per
     *  element at release (direct call, no type erasure). */
    void setElemLedger(DCachePorts *ports) { ports_ = ports; }

    /** Attach a flight recorder for vreg alloc/release events (null
     *  detaches; pure observation, never mutates file state). */
    void setRecorder(obs::TraceRecorder *rec) { recorder_ = rec; }

    /** Advance the file's notion of time (set once per cycle by the
     *  engine tick; allocate() stamps it into the register so release
     *  can attribute lifetimes). */
    void setClock(Cycle now) { clock_ = now; }

    /** @return the Figure 15 ledger. */
    const VecRegFateStats &fateStats() const { return fates_; }

    /** @return allocation failures (no free register). */
    std::uint64_t allocFailures() const { return allocFailures_; }

    /** Zero the Figure-15 ledger and the allocation-failure count. */
    void
    resetStats()
    {
        fates_ = VecRegFateStats{};
        allocFailures_ = 0;
    }

  private:
    /** Per-element payload. The V/R/U/F and bookkeeping flags live in
     *  per-register bitmasks (below) so the hot flag queries — element
     *  readiness, the Section 3.3 freeing conditions — are single-word
     *  loads and popcounts instead of a strided walk over fat element
     *  records (vlen is capped at 64 everywhere, enforced in the
     *  constructor). */
    struct Elem
    {
        std::uint64_t data = 0;
        ElemLoadId loadId = 0;
    };

    struct Reg
    {
        bool allocated = false;
        std::uint32_t gen = 0;
        Addr mrbb = 0;
        unsigned elemCount = 0;
        bool killed = false;
        bool uniform = false;
        bool hasRange = false;
        std::uint64_t vMask = 0;  ///< V: validation committed
        std::uint64_t rMask = 0;  ///< R: value computed / loaded
        std::uint64_t uMask = 0;  ///< U: validation in flight
        std::uint64_t fMask = 0;  ///< F: element dead
        Addr rangeLo = 0, rangeHi = 0; ///< inclusive byte range
        Cycle allocCycle = 0;
        std::vector<Elem> elems;
    };

    /** Why a register is being released (fate attribution). */
    enum class ReleaseCause : std::uint8_t
    {
        Cond1,
        Cond2,
        Killed,
        Bulk,
    };

    const Reg &regFor(VecRegRef ref) const;
    Reg &regFor(VecRegRef ref);
    void release(Reg &reg, ReleaseCause cause);

    /** @return the cause under which @p r may be released now, or none
     *  (condition 2 only when @p allow_cond2; see tryRelease()). */
    std::optional<ReleaseCause> releaseCause(const Reg &r, Addr gmrbb,
                                             bool allow_cond2) const;

    /** Mark @p id for the next incremental sweepReleases() pass. */
    void
    markSweepCandidate(VecRegId id)
    {
        if (!sweepMarked_[id]) {
            sweepMarked_[id] = true;
            sweepCandidates_.push_back(id);
        }
    }

    unsigned numRegs_;
    unsigned vlen_;
    std::vector<Reg> regs_;
    std::vector<VecRegId> sweepCandidates_;
    std::vector<bool> sweepMarked_;     ///< dedup for the candidate list
    /** Bit i of word i / 64: register i is allocated and hasRange (set
     *  by setAddrRange, cleared when the register is released). */
    std::vector<std::uint64_t> rangedMask_;
    VecRegFateStats fates_;
    Cycle clock_ = 0;
    std::uint64_t allocFailures_ = 0;
    DCachePorts *ports_ = nullptr;
    obs::TraceRecorder *recorder_ = nullptr;
};

} // namespace sdv

#endif // SDV_VECTOR_VREG_FILE_HH
