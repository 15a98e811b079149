/**
 * @file
 * The speculative dynamic vectorization engine (Section 3): owns the
 * Table of Loads, the VRMT, the vector register file and the vector
 * datapath, and implements the decode-time vectorization / validation
 * conversion, the commit-time flag updates (V/F, GMRBB), the store
 * coherence check, and squash undo.
 */

#ifndef SDV_CORE_SDV_ENGINE_HH
#define SDV_CORE_SDV_ENGINE_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "core/dyn_inst.hh"
#include "core/rename.hh"
#include "sim/fault_injection.hh"
#include "vector/datapath.hh"
#include "vector/table_of_loads.hh"
#include "vector/vreg_file.hh"
#include "vector/vrmt.hh"

namespace sdv {

/** Configuration of the vectorization engine (Table 1 defaults). */
struct EngineConfig
{
    bool enabled = true;          ///< xpV vs xpIM/xpnoIM configurations
    unsigned vlen = 4;            ///< elements per vector register
    unsigned numVregs = 128;      ///< vector registers
    unsigned tlSets = 512;        ///< Table of Loads sets
    unsigned tlWays = 4;          ///< Table of Loads ways
    std::uint8_t tlConfidence = 2; ///< spawn threshold
    unsigned vrmtSets = 64;       ///< VRMT sets
    unsigned vrmtWays = 4;        ///< VRMT ways
    /** Figure 7: block decode while a captured-scalar operand's
     *  producer has not completed (real) or not (ideal). */
    bool blockOnScalarOperand = true;
    /**
     * Eager load chaining: spawn a load entry's successor incarnation
     * when its *first* element validates instead of its last, keeping
     * the speculative element loads a full incarnation ahead of the
     * validations that consume them. Breaks the cache-line phase lock
     * documented in docs/performance.md ("Steady-state behavior"):
     * with vlen x stride smaller than an L1 line, an unluckily aligned
     * chain otherwise issues each new line's first element only one
     * loop iteration before its consumer, exposing the miss latency on
     * every dependent branch. Off by default (the paper chains at the
     * last validation, Section 3.2).
     */
    bool eagerChainLoads = false;
    VectorFuConfig fu;            ///< vector FU bandwidth
    /** Adversarial fault-injection plan (sim/fault_injection.hh);
     *  disabled by default, so baseline runs draw nothing. */
    FaultPlan fault;
};

/** Decode outcome reported to the pipeline. */
enum class DecodeAction : std::uint8_t
{
    Normal,  ///< proceed (mode recorded in the DynInst)
    Blocked, ///< stall decode this cycle and retry (Figure 7)
};

/** Completion state of a validation's target element. */
enum class ValStatus : std::uint8_t
{
    Ready,   ///< element computed; validation may complete
    Waiting, ///< element still in flight
    Dead,    ///< register killed/freed; fall back to scalar execution
};

/** Engine statistics (feed Figures 9, 13, 14, 15 and prose claims). */
struct EngineStats
{
    std::uint64_t loadSpawns = 0;
    std::uint64_t loadChainSpawns = 0;
    std::uint64_t arithSpawns = 0;
    std::uint64_t arithChainSpawns = 0;
    std::uint64_t mixedScalarSpawns = 0;  ///< one scalar + one vector op
    std::uint64_t loadValidations = 0;    ///< decode conversions
    std::uint64_t arithValidations = 0;
    std::uint64_t loadAddrMisspecs = 0;
    std::uint64_t arithOperandMisspecs = 0;
    std::uint64_t storesChecked = 0;
    std::uint64_t storeRangeConflicts = 0; ///< Section 3.6 squashes
    std::uint64_t decodeBlockEvents = 0;   ///< Figure 7 stall cycles
    std::uint64_t lateValidationFallbacks = 0;
    std::uint64_t validationValueMismatches = 0; ///< self-check (== 0)

    // --- fault injection (PR 6). The detect/benign counters examine
    // only *marked* elements, so validationValueMismatches above stays
    // a genuine-bug detector (and stays zero) even under injection. --
    std::uint64_t faultElemFlips = 0;     ///< element bit flips applied
    std::uint64_t faultVrmtFlips = 0;     ///< VRMT corruptions applied
    std::uint64_t faultValidationDetects = 0; ///< injected-mark mismatch
    std::uint64_t faultTaintDetects = 0;      ///< taint-mark mismatch
    std::uint64_t faultValidationBenign = 0;  ///< marked but matched
    std::uint64_t faultVrmtDetects = 0;   ///< address check caught entry
    std::uint64_t faultChainDemotions = 0; ///< chains demoted to scalar
    std::uint64_t faultChainReenables = 0; ///< chains re-enabled
    std::uint64_t faultTlFlips = 0;    ///< TL entry corruptions applied
    std::uint64_t faultGmrbbFlips = 0; ///< shadow-GMRBB tag corruptions
};

/** What a validation commit reported back to the core (fault ledger). */
struct ValCommitResult
{
    bool faultDetected = false; ///< a marked element mismatched
    bool chainDemoted = false;  ///< the detection tripped the K-threshold
};

/** The engine. */
class SdvEngine
{
  public:
    explicit SdvEngine(const EngineConfig &cfg);

    /** @return true when dynamic vectorization is enabled. */
    bool enabled() const { return cfg_.enabled; }

    /**
     * Decode-time hook, called for every instruction in program order
     * after oracle execution. Decides scalar / validation / spawn,
     * updates TL, VRMT, vector registers and the rename table, and
     * records undo state in the DynInst.
     *
     * @param d the decoding instruction
     * @param rt the rename table
     * @param ctx producer-completion queries (Figure 7 blocking)
     */
    DecodeAction decode(DynInst &d, RenameTable &rt,
                        const VecExecContext &ctx);

    /**
     * Side-effect-free probe: would decode(@p rec) return Blocked
     * right now (Figure 7: mixed-operand validation whose captured
     * scalar's producer is in flight)? Used by the event-skipping
     * clock to treat a blocked decode as an idle stage whose wake-up
     * is the producer's scheduled completion, instead of vetoing the
     * jump. Mirrors the decodeArith() Blocked path exactly; no LRU,
     * TL or statistics updates.
     */
    bool decodeWouldBlock(const ExecRecord &rec, const RenameTable &rt,
                          const VecExecContext &ctx) const;

    /**
     * Account @p n skipped cycles of a decode blocked at @p pc: the
     * Figure-7 stall counter and the VRMT LRU touch each blocked
     * cycle's decode() call would have made.
     */
    void
    chargeBlockedCycles(Addr pc, std::uint64_t n)
    {
        stats_.decodeBlockEvents += n;
        vrmt_.touch(pc, n);
    }

    /** @return the target element's status for an in-flight validation. */
    ValStatus validationStatus(const DynInst &d) const;

    /** Give up on a validation whose register died: clears U and lets
     *  the pipeline re-execute the instance in scalar mode. */
    void fallbackValidation(DynInst &d);

    /** Commit of a validation: V flag, value self-check (split into
     *  the genuine self-check and the injected-fault ledger), F shadow.
     *  @return what the fault ledger saw, for CoreStats mirroring. */
    ValCommitResult onValidationCommit(const DynInst &d);

    /** Commit of a register-writing scalar instruction: F shadow, and
     *  the clean-commit countdown of a demoted chain.
     *  @retval true when this commit re-enabled a demoted chain */
    bool onScalarWriterCommit(const DynInst &d);

    /**
     * Commit of a store: Section 3.6 range check.
     * @retval true when a vector register was invalidated and every
     * younger instruction must be squashed
     */
    bool onStoreCommit(const DynInst &d);

    /** Commit of a control instruction: GMRBB update. */
    void onControlCommit(const DynInst &d);

    /** Undo one instruction's decode effects (walk youngest-first). */
    void undoDecode(DynInst &d, RenameTable &rt);

    /** Advance the vector datapath and the register reclamation. */
    void tick(Cycle now, DCachePorts &ports, MemHierarchy &mem);

    /**
     * Event-horizon query for the event-skipping clock: the earliest
     * cycle at which tick() could change engine state. A pending
     * register-release sweep means "this very cycle"; otherwise the
     * horizon is the datapath's.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (vrf_.sweepPending())
            return now;
        return datapath_.nextEventCycle(now);
    }

    /** @return true when no transient vector state is in flight: no
     *  datapath instances or scheduled completions and no pending
     *  release sweep. This is the engine half of Core::quiescent();
     *  deliberately not derived from nextEventCycle(), whose exact
     *  horizon can be finite (or never) while instances are parked. */
    bool
    idle() const
    {
        return datapath_.idle() && !vrf_.sweepPending();
    }

    /** End of simulation: release registers so ledgers resolve. */
    void finalize();

    /**
     * Context-switch quiesce at a checkpoint boundary: drop all
     * transient vector state (datapath instances, vector registers,
     * VRMT, F-flag shadows) while keeping the warm Table of Loads and
     * the GMRBB. The datapath must already be idle.
     */
    void quiesce();

    /** Zero every engine-side statistic (measurement rebase). */
    void
    resetStats()
    {
        stats_ = EngineStats{};
        tl_.resetStats();
        vrf_.resetStats();
        datapath_.resetStats();
        finj_.resetCounters();
    }

    /** Serialize the checkpointable warm state (TL + GMRBB). Only
     *  valid after quiesce(): everything else is transient. */
    void
    saveState(Serializer &ser) const
    {
        ser.u64(gmrbb_);
        tl_.saveState(ser);
    }

    /** Restore warm state; @retval false on geometry mismatch. */
    bool
    loadState(Deserializer &des)
    {
        gmrbb_ = des.u64();
        return tl_.loadState(des);
    }

    /** @return current GMRBB (PC of last committed backward branch). */
    Addr gmrbb() const { return gmrbb_; }

    /** @return the vector register file. */
    VecRegFile &vrf() { return vrf_; }

    /** @return the vector register file (const). */
    const VecRegFile &vrf() const { return vrf_; }

    /** @return the VRMT. */
    Vrmt &vrmt() { return vrmt_; }

    /** @return the Table of Loads. */
    TableOfLoads &tl() { return tl_; }

    /** @return the vector datapath. */
    VectorDatapath &datapath() { return datapath_; }

    /** @return the fault injector (applied-fault counters). */
    const FaultInjector &faultInjector() const { return finj_; }

    /** @return true when chain @p pc is currently demoted to scalar
     *  execution (graceful degradation after repeated faults). */
    bool
    chainDemoted(Addr pc) const
    {
        if (demotions_.empty())
            return false; // hot-path guard: empty unless faults fired
        auto it = demotions_.find(pc);
        return it != demotions_.end() && it->second.demoted;
    }

    /** @return engine statistics. */
    const EngineStats &stats() const { return stats_; }

    /** @return the configuration. */
    const EngineConfig &config() const { return cfg_; }

    /** Attach a flight recorder for chain-lifecycle events (null
     *  detaches; forwarded to the register file by Core::setRecorder). */
    void setRecorder(obs::TraceRecorder *rec) { recorder_ = rec; }

  private:
    /** Shadow of the last committed vector-element writer per logical
     *  register, used to set F flags (Section 3.3). */
    struct Shadow
    {
        bool valid = false;
        VecRegRef vreg;
        std::uint8_t elem = 0;
    };

    DecodeAction decodeLoad(DynInst &d, RenameTable &rt);
    DecodeAction decodeArith(DynInst &d, RenameTable &rt,
                             const VecExecContext &ctx);

    /** Plain scalar rename-table write for d's destination. */
    void plainRenameWrite(DynInst &d, RenameTable &rt);

    /** Record the previous rename entry of d's destination. */
    void saveRenamePrev(DynInst &d, const RenameTable &rt);

    /** Record the previous VRMT entry for d's PC. */
    void saveVrmtPrev(DynInst &d);

    /** Turn d into a validation of the entry's next element. */
    void makeValidation(DynInst &d, RenameTable &rt, VrmtEntry &ve);

    /** Spawn a fresh vectorized load covering the next vlen elements. */
    bool trySpawnLoad(DynInst &d, RenameTable &rt, std::int64_t stride);

    /** Shared successor construction for both chain flavours. */
    VecRegRef spawnSuccessorLoad(DynInst &d, Addr base, std::int64_t stride);

    /** Chain-spawn the successor load incarnation (Section 3.2). */
    void tryChainLoad(DynInst &d, RenameTable &rt);

    /** Eager load chaining: spawn @p ve's successor incarnation ahead
     *  of exhaustion (recorded in the entry's hasNext/nextVreg fields
     *  and swapped in by decodeLoad when the offset runs out). */
    void eagerSpawnNext(DynInst &d, VrmtEntry &ve);

    /** Build the current SrcSpec of source slot 1 or 2. */
    SrcSpec currentSpec(const DynInst &d, unsigned slot,
                        const RenameTable &rt) const;

    /** @return true when the stored operands still match (Section 3.2).
     *  Takes the bare ExecRecord so the side-effect-free
     *  decodeWouldBlock() probe can run it pre-dispatch. */
    bool operandsMatch(const VrmtEntry &ve, const ExecRecord &rec,
                       const RenameTable &rt) const;

    /** @return true when @p spec is a captured scalar whose producer
     *  is still in flight (the Figure 7 blocking condition). */
    bool scalarOperandBlocked(const SrcSpec &spec, unsigned slot,
                              const ExecRecord &rec,
                              const RenameTable &rt,
                              const VecExecContext &ctx) const;

    /** Elements a new instance with these sources can compute. */
    unsigned computableElems(const SrcSpec &s1, const SrcSpec &s2) const;

    /** @return true when every vector source is a uniform register. */
    bool specsUniform(const SrcSpec &s1, const SrcSpec &s2) const;

    /** Spawn a fresh vectorized arithmetic instance. */
    bool trySpawnArith(DynInst &d, RenameTable &rt, const SrcSpec &s1,
                       const SrcSpec &s2);

    /** Chain-spawn the successor arithmetic incarnation using specs
     *  captured before the triggering validation's rename write. */
    void tryChainArith(DynInst &d, RenameTable &rt, const SrcSpec &s1,
                       const SrcSpec &s2);

    /** Kill the entry's register and abort its datapath instance. */
    void killEntry(VrmtEntry &ve);

    /** Update the F-flag shadow for a committed writer of @p rd. */
    void applyShadowWrite(RegId rd, const Shadow &next);

    /** VRMT fault site: maybe flip one bit of a just-installed load
     *  entry's stride or base address (draws once per install event,
     *  keeping the stream position schedule-independent). */
    void corruptInstall(VrmtEntry &ie);

    /** One detected fault on chain @p pc: bump the consecutive count
     *  and demote the chain to scalar once it reaches the plan's
     *  threshold. @retval true when this fault demoted the chain */
    bool noteChainFault(Addr pc);

    /** A clean validation commit of chain @p pc: reset its consecutive
     *  fault count (the demotion trigger wants *consecutive* faults). */
    void noteChainClean(Addr pc);

    EngineConfig cfg_;
    TableOfLoads tl_;
    Vrmt vrmt_;
    VecRegFile vrf_;
    VectorDatapath datapath_;
    Addr gmrbb_ = 0;
    std::array<Shadow, numLogicalRegs> shadow_{};
    /** Scratch for onStoreCommit (kept allocated across stores). */
    std::vector<Addr> storeCheckPcs_;
    std::vector<VecRegRef> storeCheckSuccessors_;

    /** Graceful degradation under fault injection: per-chain fault
     *  tracking. A chain (static PC) accumulating demoteThreshold
     *  consecutive detected faults is demoted to scalar execution —
     *  decode treats it as ineligible — and re-enabled after
     *  reenableWindow clean scalar commits. Empty unless faults fire,
     *  so baseline runs pay one empty() branch per relevant commit. */
    struct Demotion
    {
        std::uint32_t consecutiveFaults = 0;
        bool demoted = false;
        std::uint64_t cleanRemaining = 0;
    };
    std::unordered_map<Addr, Demotion> demotions_;

    FaultInjector finj_;
    EngineStats stats_;
    obs::TraceRecorder *recorder_ = nullptr;
};

} // namespace sdv

#endif // SDV_CORE_SDV_ENGINE_HH
