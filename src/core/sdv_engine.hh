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

#include "core/dyn_inst.hh"
#include "core/rename.hh"
#include "vector/datapath.hh"
#include "vector/table_of_loads.hh"
#include "vector/vreg_file.hh"
#include "vector/vrmt.hh"

namespace sdv {

/** Empty vestige of the deleted fault-injection layer, kept because
 *  the benchmark's replay driver (perfbench/replay.cc) still assigns
 *  EngineConfig::fault. */
struct FaultPlan
{
    bool operator==(const FaultPlan &) const = default;
};

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
    /** Always empty; the benchmark's replay driver still assigns it. */
    FaultPlan fault;
};

/** Decode outcome reported to the pipeline. */
enum class DecodeAction : std::uint8_t
{
    Normal,  ///< proceed (mode recorded in the DynInst)
    Blocked, ///< stall decode this cycle and retry (Figure 7)
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
    std::uint64_t lateValidationFallbacks = 0;
    std::uint64_t validationValueMismatches = 0; ///< self-check (== 0)
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

    /** @return the target element's status for an in-flight validation. */
    VecRegFile::ValElem validationStatus(const DynInst &d) const;

    /** Give up on a validation whose register died: clears U and lets
     *  the pipeline re-execute the instance in scalar mode. */
    void fallbackValidation(DynInst &d);

    /** Commit of a validation: V flag, value self-check, F shadow. */
    void onValidationCommit(const DynInst &d);

    /** Commit of a non-validation instruction: F shadow of its
     *  destination register. */
    void onScalarWriterCommit(const DynInst &d);

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

    /** @return true when no transient vector state is in flight: no
     *  datapath instances or scheduled completions and no pending
     *  release sweep. This is the engine half of Core::quiescent(). */
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

    /** Allocate, set up and spawn a load incarnation following the
     *  access at @p base; marks @p d as its spawner. */
    VecRegRef launchLoad(DynInst &d, Addr base, std::int64_t stride);

    /** Spawn a fresh vectorized load covering the next vlen elements. */
    bool trySpawnLoad(DynInst &d, RenameTable &rt, std::int64_t stride);

    /** Chain-spawn the successor load incarnation (Section 3.2). */
    void tryChainLoad(DynInst &d, RenameTable &rt);

    /** Eager load chaining: spawn @p ve's successor incarnation ahead
     *  of exhaustion (recorded in the entry's hasNext/nextVreg fields
     *  and swapped in by decodeLoad when the offset runs out). */
    void eagerSpawnNext(DynInst &d, VrmtEntry &ve);

    /** Build the current SrcSpec of source slot 1 or 2. */
    SrcSpec currentSpec(const DynInst &d, unsigned slot,
                        const RenameTable &rt) const;

    /** @return true when the stored operands still match (Section 3.2). */
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

    /** Allocate, set up, install in the VRMT and spawn an arithmetic
     *  incarnation; marks @p d as its spawner. */
    VecRegRef launchArith(DynInst &d, const SrcSpec &s1,
                          const SrcSpec &s2);

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

    EngineStats stats_;
    obs::TraceRecorder *recorder_ = nullptr;
};

} // namespace sdv

#endif // SDV_CORE_SDV_ENGINE_HH
