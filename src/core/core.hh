/**
 * @file
 * The out-of-order superscalar core (the SimpleScalar-like substrate of
 * Section 4.1) extended with the speculative dynamic vectorization
 * engine. Execution values come from an in-order oracle at fetch (the
 * sim-outorder convention); the cycle model charges fetch, decode,
 * queue, FU, cache-port and commit resources.
 *
 * Branch mispredictions stall fetch until the branch resolves (no
 * wrong-path fetch); vector state deliberately survives them
 * (control-flow independence, Section 3.5). Store-set conflicts with
 * vector registers (Section 3.6) squash all younger instructions; the
 * squashed oracle records replay through fetch.
 */

#ifndef SDV_CORE_CORE_HH
#define SDV_CORE_CORE_HH

#include <deque>
#include <string>
#include <vector>

#include "arch/executor.hh"
#include "branch/btb.hh"
#include "common/serialize.hh"
#include "branch/gshare.hh"
#include "branch/ras.hh"
#include "common/ring_pool.hh"
#include "core/dyn_inst.hh"
#include "core/fu_pool.hh"
#include "core/lsq.hh"
#include "core/rename.hh"
#include "core/sdv_engine.hh"
#include "core/store_overlay.hh"
#include "mem/hierarchy.hh"
#include "mem/port.hh"

namespace sdv {

namespace obs {
class TraceRecorder;
} // namespace obs

/** Full machine configuration. The defaults here and in the member
 *  structs are Table 1's 4-way machine; makeConfig (sim/config)
 *  sets what the 8-way width, the port count and the bus mode change. */
struct CoreConfig
{
    unsigned fetchWidth = 4;   ///< instructions per cycle, <=1 taken branch
    unsigned decodeWidth = 4;  ///< rename/dispatch bandwidth
    unsigned issueWidth = 4;   ///< out-of-order issue bandwidth
    unsigned commitWidth = 4;  ///< in-order commit bandwidth
    unsigned maxStoresPerCycle = 2; ///< Section 3.6 commit constraint
    unsigned robEntries = 128; ///< instruction window
    unsigned lsqEntries = 32;  ///< load/store queue
    unsigned fetchQueueEntries = 8; ///< fetch/decode decoupling queue

    ScalarFuConfig fu;         ///< scalar FU counts

    unsigned dcachePorts = 1;  ///< L1D ports (1/2/4)
    bool widePorts = false;    ///< scalar buses vs wide (line) buses

    unsigned gshareEntries = 64 * 1024;
    unsigned gshareHistoryBits = 16;
    unsigned btbSets = 512;
    unsigned btbWays = 4;
    unsigned rasDepth = 16;

    /** Figure 10 window: committed instructions counted after each
     *  mispredicted branch (the paper measures the next 100). */
    unsigned fig10WindowInsts = 100;

    /** Trace-compiled dispatch: the oracle executes the program's
     *  compiled trace (pre-resolved handlers, pre-folded immediates,
     *  pre-computed branch targets) instead of interpreting each
     *  instruction through instAt(). Fetch computes a conditional
     *  branch's predicted target from its immediate either way.
     *  Bit-identical to the interpreter path (see
     *  tests/test_trace_compile.cc); disable (--no-trace) to
     *  cross-check. */
    bool traceExec = true;

    MemHierarchyConfig mem;    ///< cache geometry and latencies
    EngineConfig engine;       ///< dynamic vectorization engine
};

/** Statistics exported by the core. */
struct CoreStats
{
    Cycle cycles = 0; ///< the clock, filled in by Core::stats()
    std::uint64_t committedInsts = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t committedBranches = 0;
    std::uint64_t committedValidations = 0;       ///< Figure 14
    std::uint64_t committedLoadValidations = 0;
    std::uint64_t scalarLoadAccesses = 0; ///< demand loads through ports
    std::uint64_t loadForwards = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t fetchStallCycles = 0;  ///< cycles fetch sat stalled
    /** Of the fetch-stall cycles, those where the stalling branch was
     *  dep-blocked on an in-flight *validation* — fetch serialized
     *  behind vector element computation (see docs/performance.md,
     *  "Steady-state behavior"). */
    std::uint64_t fetchStallValWaitCycles = 0;
    std::uint64_t decodeBlockCycles = 0; ///< Figure 7 stalls
    std::uint64_t robFullStalls = 0;
    std::uint64_t lsqFullStalls = 0;
    std::uint64_t storeConflictSquashes = 0;
    std::uint64_t squashedInsts = 0;

    // Figure 10: reuse among the instructions after a mispredict
    // (CoreConfig::fig10WindowInsts of them, 100 in the paper).
    std::uint64_t postMispredictWindowInsts = 0;
    std::uint64_t postMispredictReused = 0;

    // The transient-exposure probe of the quiesce boundary
    // (timing-channel experiments). All stay zero in default runs.
    std::uint64_t quiesceEvents = 0;       ///< mid-run vector quiesces
    std::uint64_t quiesceLiveVregs = 0;    ///< live vregs at those events
    /** Speculative (computed but not yet validated) elements alive
     *  across a quiesce boundary: the state a timing-channel attacker
     *  probes, dropped by the boundary. */
    std::uint64_t quiesceTransientElems = 0;

    // Always 0: the core ticks every cycle. Kept because the
    // benchmark's replay driver still reads them.
    std::uint64_t eventSkipJumps = 0;
    std::uint64_t eventSkippedCycles = 0;

    /** @return instructions per cycle. */
    double
    ipc() const
    {
        return cycles == 0 ? 0.0 : double(committedInsts) / double(cycles);
    }
};

/** The core. Implements VecExecContext so the vector machinery reaches
 *  speculative load values and completion state through one direct
 *  virtual call instead of std::function indirections. */
class Core : private VecExecContext
{
  public:
    /**
     * @param cfg machine configuration
     * @param prog the program to run (must outlive the core)
     */
    Core(const CoreConfig &cfg, const Program &prog);

    /** Advance one cycle. */
    void tick();

    /** @return true once HALT has committed. */
    bool done() const { return haltCommitted_; }

    /**
     * Cap oracle fetch at @p insts dynamic instructions (0 removes the
     * cap). Fetch treats a reached cap like program exhaustion, so the
     * pipeline drains naturally; used by Simulator::advanceTo to stop
     * at a checkpointable instruction boundary.
     */
    void setFetchLimit(std::uint64_t insts) { fetchLimit_ = insts; }

    /** @return true when fetch has nothing left to supply: no replay
     *  entries and the oracle is halted or at the fetch limit. */
    bool
    fetchExhausted() const
    {
        return replayQueue_.empty() &&
               (oracle_.halted() ||
                (fetchLimit_ != 0 &&
                 oracle_.instCount() >= fetchLimit_));
    }

    /**
     * @return true when no in-flight state remains anywhere: ROB,
     * queues, LSQ and pending stores empty, fetch unstalled, the
     * vector engine fully idle and every MSHR fill landed. The
     * checkpoint layer captures only at such a boundary.
     */
    bool quiescent() const;

    /**
     * Begin the measured region: quiesce transient vector state
     * (context-switch semantics — the TL, caches and predictors stay
     * warm), drop expired MSHR entries, rebase the clock to zero and
     * zero every statistic. The committed-stream hash and total commit
     * count keep accumulating so end-of-run verification still covers
     * the whole program. Requires quiescent().
     */
    void beginMeasurement();

    /**
     * Context-switch the transient vector state only (engine quiesce +
     * rename reset) *without* rebasing the clock or statistics: the
     * steady-state reproduction hook behind --quiesce-interval. The
     * run continues measuring; only the speculative vector state is
     * dropped, exactly as at a measurement boundary. Requires
     * quiescent() (callers drain via a fetch limit first).
     */
    void quiesceVectorState();

    /** @return commits since construction (warm-up included), the
     *  count end-of-run verification checks against the functional
     *  reference; stats().committedInsts covers the measured region
     *  only. */
    std::uint64_t committedTotal() const { return committedTotal_; }

    /**
     * Serialize the warm state a checkpoint carries: fetch PC, commit
     * hash/total, oracle (architectural state + memory), cache tags,
     * predictors and the engine's Table of Loads. Only valid at a
     * measurement boundary (quiescent, cycle 0).
     */
    void saveWarmState(Serializer &ser) const;

    /**
     * Restore warm state into a freshly-constructed core (asserted:
     * the memory in the image is a delta over the load image such a
     * core holds).
     * @retval false when a component's geometry does not match
     */
    bool loadWarmState(Deserializer &des);

    /** @return the configuration this core was built with. */
    const CoreConfig &config() const { return cfg_; }

    /** @return current cycle. */
    Cycle cycle() const { return cycle_; }

    /** @return a stable pointer to the cycle counter (log-context
     *  tagging: warnings print the cycle they fired at). */
    const Cycle *cyclePtr() const { return &cycle_; }

    /** @return core statistics, their cycles read from the clock. */
    CoreStats
    stats() const
    {
        CoreStats s = stats_;
        s.cycles = cycle_;
        return s;
    }

    /** @return the vectorization engine. */
    SdvEngine &engine() { return engine_; }

    /** @return the D-cache port network. */
    DCachePorts &ports() { return ports_; }

    /** @return the memory hierarchy. */
    MemHierarchy &memHierarchy() { return mem_; }

    /** @return the in-order oracle (architectural state source). */
    const FunctionalCore &oracle() const { return oracle_; }

    /** @return rolling hash over committed PCs (equivalence checks). */
    std::uint64_t commitPcHash() const { return commitHash_; }

    /** @return number of in-flight instructions. */
    size_t robOccupancy() const { return rob_.size(); }

    /** Release remaining vector state and resolve ledgers. */
    void finalize() { engine_.finalize(); }

    /** Attach a flight recorder to the core and every instrumented
     *  component (engine, vector register file, MSHRs). Null detaches.
     *  Pure observation: recording never changes simulated state. */
    void setRecorder(obs::TraceRecorder *rec);

    /**
     * Recompute the scheduling state from the ROB alone and compare:
     * each entry's pendingDeps, each producer's waiter list, iq_ as
     * the seq-ordered waiting entries whose producers have all
     * completed, and completionHeap_ as the issued, not-completed
     * entries, each once, in a min-heap on readyCycle.
     * @return the first mismatch as text, or empty when they agree
     */
    std::string auditScheduler() const;

  private:
    /** An instruction fetched but not yet renamed. */
    struct FetchedInst
    {
        ExecRecord rec;
        bool mispredicted = false;

        /** Recycle a fetch-queue slot. `rec` is left stale: every
         *  fetch path (compiled trace, interpreter, replay) overwrites
         *  it in full. */
        void reset() { mispredicted = false; }
    };

    void commitStage();
    void completionStage();
    void issueStage();
    void decodeStage();
    void fetchStage();

    /** Commit bookkeeping shared by all instruction kinds. */
    void commitCommon(DynInst &d);

    /** Schedule an issued instruction's completion (min-heap keyed by
     *  readyCycle; the completion stage pops entries as they mature). */
    void scheduleCompletion(DynInst *d);

    /** Put @p d on the waiter list of in-flight producer @p dep through
     *  link @p slot (0 for dep1, 1 for dep2). */
    void linkProducer(DynInst &d, InstSeqNum dep, unsigned slot);

    /** @p p completed: count down each consumer's pendingDeps and move
     *  the waiting ones that reach 0 into iq_. */
    void wakeConsumers(DynInst *p);

    /** Insert a dep-ready waiting entry into iq_ at its seq position. */
    void insertReady(DynInst *d);

    /** Shared unstall hook: a completing instruction that is the
     *  stalled-on branch resumes fetch at its resolved target. */
    void
    maybeUnstall(const DynInst *d)
    {
        if (d->seq == stallBranchSeq_) {
            fetchStalled_ = false;
            stallBranchSeq_ = 0;
            fetchPc_ = d->rec.nextPc;
        }
    }

    /** @return true when the stalled-on branch is dep-blocked on an
     *  in-flight validation (fetch-stall attribution). */
    bool fetchStallOnValidation() const;

    /** Squash every in-flight instruction (store conflict path). */
    void squashAllInFlight();

    /**
     * Read memory as the caches see it: the oracle image with the
     * pre-images of not-yet-committed stores rewound. Speculative
     * vector-element loads must read this committed view, not the
     * oracle-at-fetch state which may already contain future stores.
     */
    std::uint64_t readCommittedMemory(Addr addr, unsigned size) const;

    /** @return true when producer @p seq has completed (or retired). */
    bool
    producerCompleted(InstSeqNum seq) const
    {
        if (seq == 0)
            return true;
        if (rob_.empty() || seq < rob_.front().seq)
            return true; // already retired
        const std::uint64_t idx = seq - rob_.front().seq;
        if (idx >= rob_.size())
            return true; // unknown (post-squash reference): treat as done
        return rob_[size_t(idx)].completed;
    }

    // VecExecContext (the vector datapath + engine call back in here).
    std::uint64_t specLoadValue(Addr addr, unsigned size) const override;
    bool
    seqCompleted(InstSeqNum seq) const override
    {
        return producerCompleted(seq);
    }

    /** @return the ROB entry for @p seq, or nullptr. */
    DynInst *robFind(InstSeqNum seq) const;

    /** Predict + classify one fetched control instruction. */
    void predictControl(FetchedInst &f);

    CoreConfig cfg_;

    // Substrate components.
    FunctionalCore oracle_;
    MemHierarchy mem_;
    DCachePorts ports_;
    Gshare gshare_;
    Btb btb_;
    ReturnAddressStack ras_;
    LoadStoreQueue lsq_;
    FuPool fuPool_;
    RenameTable rt_;
    SdvEngine engine_;

    // Fetch state.
    Addr fetchPc_;
    bool fetchStalled_ = false;
    InstSeqNum stallBranchSeq_ = 0; ///< 0: branch still in fetch queue
    Cycle icacheReadyAt_ = 0;
    RingPool<FetchedInst> fetchQueue_;
    std::deque<ExecRecord> replayQueue_;

    // Backend state. The ROB is a fixed-capacity pool of DynInst slots
    // sized by robEntries: no per-instruction heap allocation on the
    // fetch->commit path, and entry addresses stay stable for the IQ,
    // the LSQ and the waiter lists until the instruction retires.
    RingPool<DynInst> rob_;
    /** Issue queue: the waiting entries whose producers have all
     *  completed, in seq order. A dep-blocked entry enters it when its
     *  last producer wakes it. */
    std::vector<DynInst *> iq_;

    /** Issued-but-incomplete instructions as a min-heap on readyCycle:
     *  the completion stage pops matured entries instead of rescanning
     *  every in-flight instruction each cycle. */
    std::vector<DynInst *> completionHeap_;

    /** Decoded validations whose target element has not resolved yet,
     *  in decode order: each completion stage polls their status. */
    std::vector<DynInst *> parkedVals_;

    InstSeqNum nextSeq_ = 1;

    // Per-cycle issue-stage access completion map (wide-bus riders).
    std::vector<std::pair<std::int32_t, Cycle>> cycleAccessDone_;

    /** Pre-images of oracle-executed stores that have not committed
     *  yet, in program order (stores commit in order -> FIFO). */
    PendingStoreOverlay pendingStores_;

    Cycle cycle_ = 0;
    std::uint64_t fetchLimit_ = 0;  ///< oracle fetch cap (0 = none)
    std::uint64_t committedTotal_ = 0; ///< commits incl. warm-up
    bool haltCommitted_ = false;
    std::uint64_t commitHash_ = 1469598103934665603ULL;

    // Figure 10 window.
    unsigned fig10Remaining_ = 0;

    /** Flight recorder (null when detached / observability is off). */
    obs::TraceRecorder *recorder_ = nullptr;

    CoreStats stats_;
};

} // namespace sdv

#endif // SDV_CORE_CORE_HH
