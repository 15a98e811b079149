/**
 * @file
 * The vector datapath (Section 3.4): vector instruction instances wait
 * for their operand elements and stream through pipelined vector
 * functional units at one element per cycle; vector load instances
 * fetch their elements through the shared L1D ports (riding along wide
 * accesses when the stride permits).
 */

#ifndef SDV_VECTOR_DATAPATH_HH
#define SDV_VECTOR_DATAPATH_HH

#include <cstdint>
#include <vector>

#include "isa/opcodes.hh"
#include "mem/hierarchy.hh"
#include "mem/port.hh"
#include "vector/elem_kernels.hh"
#include "vector/src_spec.hh"
#include "vector/vreg_file.hh"

namespace sdv {

class FaultInjector;

/**
 * What the vector machinery needs from the surrounding core, as a
 * plain interface: speculative load element values (the committed
 * memory view) and producer-completion queries. The core implements it
 * directly; a single virtual call replaces the std::function
 * indirections these used to be, keeping the per-element hot path free
 * of type-erasure overhead.
 */
class VecExecContext
{
  public:
    /** @return the committed-view value at [@p addr, @p addr+@p size). */
    virtual std::uint64_t specLoadValue(Addr addr, unsigned size) const = 0;

    /** @return true when producer @p seq has completed (or retired). */
    virtual bool seqCompleted(InstSeqNum seq) const = 0;

  protected:
    ~VecExecContext() = default;
};

/** Vector functional unit counts (Table 1). */
struct VectorFuConfig
{
    unsigned intAlu = 3;
    unsigned intMulDiv = 2;
    unsigned fpAdd = 2;
    unsigned fpMulDiv = 1;
    unsigned loadPorts = 4; ///< max element loads initiated per cycle
};

/** One in-flight vectorized instruction instance. */
struct VecInstance
{
    std::uint64_t id = 0;    ///< unique instance id
    Addr pc = 0;             ///< spawning static instruction
    Opcode op = Opcode::NOP; ///< operation (element-wise)
    /** Arith: batched element kernel and FU class, resolved once at
     *  spawn (no per-element opcode switch or OpInfo lookup). */
    ElemKernelFn kern = nullptr;
    OpClass cls = OpClass::None;
    std::int32_t imm = 0;    ///< immediate for reg-imm forms
    VecRegRef dest;          ///< destination register incarnation
    SrcSpec src1;            ///< first operand
    SrcSpec src2;            ///< second operand
    unsigned elemCount = 0;  ///< elements to produce
    unsigned nextElem = 0;   ///< next element to initiate
    bool isLoad = false;     ///< load instance
    Addr baseAddr = 0;       ///< load: spawning instance's address
    std::int64_t stride = 0; ///< load: stride
    unsigned elemBytes = 8;  ///< load: access size
    bool aborted = false;    ///< stop initiating further elements
    /** Producer of a captured-scalar operand; the instance waits in
     *  the queue until it completes (Section 3.4). */
    InstSeqNum scalarDep = 0;

    /** @return true when all elements have been initiated. */
    bool done() const { return aborted || nextElem >= elemCount; }

    /** @return address of load element @p k (spawn address + (k+1)
     *  strides, Section 3.2). */
    Addr
    elemAddr(unsigned k) const
    {
        return baseAddr + Addr(stride * std::int64_t(k + 1));
    }
};

/** Statistics of the vector datapath. */
struct DatapathStats
{
    std::uint64_t instancesSpawned = 0;
    std::uint64_t loadInstances = 0;
    std::uint64_t arithInstances = 0;
    std::uint64_t instancesWithNonzeroSrcOffset = 0; ///< Figure 9
    std::uint64_t elemsComputed = 0;
    std::uint64_t elemLoadAccessesIssued = 0; ///< new port accesses
    std::uint64_t elemLoadsRideAlong = 0;     ///< served by merge
    std::uint64_t elemLoadPortStalls = 0;
    std::uint64_t elemLoadMshrStalls = 0;
    std::uint64_t instancesAborted = 0;
};

/**
 * Owns and advances all vector instances. The core calls tick() once
 * per cycle after the scalar issue stage (demand loads get port
 * priority; element loads then use leftover slots and ride-alongs).
 */
class VectorDatapath
{
  public:
    /**
     * @param cfg vector FU counts
     * @param vrf the vector register file (elements written here)
     */
    VectorDatapath(const VectorFuConfig &cfg, VecRegFile &vrf);

    /** Wire the core-side context (load values + completion queries).
     *  Without one, load elements read zero and captured-scalar
     *  instances stay parked. */
    void setContext(const VecExecContext *ctx) { ctx_ = ctx; }

    /** Wire the fault injector (owned by the SDV engine). When armed,
     *  every element value landing in the register file may take a bit
     *  flip, and elements computed from marked sources are
     *  taint-marked so the validation-side accounting stays exact. */
    void setFaultInjector(FaultInjector *finj) { finj_ = finj; }

    /** Spawn a vectorized load instance. */
    void spawnLoad(Addr pc, VecRegRef dest, Addr base, std::int64_t stride,
                   unsigned elem_bytes, unsigned elem_count);

    /** Spawn a vectorized arithmetic instance. */
    void spawnArith(Addr pc, Opcode op, std::int32_t imm, VecRegRef dest,
                    const SrcSpec &src1, const SrcSpec &src2,
                    unsigned elem_count);

    /** Abort the instance producing @p dest (VRMT invalidation). */
    void abortByDest(VecRegRef dest);

    /** Advance one cycle: land completions, initiate new elements. */
    void tick(Cycle now, DCachePorts &ports, MemHierarchy &mem);

    /**
     * Event-horizon query for the event-skipping clock: the earliest
     * cycle at which tick() could change any state. It is @p now
     * while any instance would retire, cascade-abort or act this cycle
     * (see step()). Otherwise every instance waits, either on a source
     * element, whose completion is scheduled here, or on a captured-
     * scalar producer, whose completion is the core's scheduled event,
     * and the horizon is the earliest scheduled element completion.
     * In stall windows where every instance sits behind an L2 miss,
     * the clock jumps straight to the miss completion.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** @return true when no instance is in flight and no element
     *  completion is scheduled (the quiescence condition; independent
     *  of the horizon above, which may be finite-but-idle). */
    bool
    idle() const
    {
        return active_.empty() && completions_.empty();
    }

    /** @return live (not fully initiated) instance count. */
    size_t numActive() const { return active_.size(); }

    /** @return datapath statistics. */
    const DatapathStats &stats() const { return stats_; }

    /** Drop all in-flight state (used by tests between scenarios). */
    void clear();

    /** Zero the statistics (checkpoint measurement rebase). */
    void resetStats() { stats_ = DatapathStats{}; }

  private:
    /** Pending element completion. */
    struct Completion
    {
        Cycle ready = 0;
        VecRegRef dest;
        unsigned elem = 0;
        std::uint64_t value = 0;
        ElemLoadId loadId = 0;
        bool tainted = false; ///< computed from a fault-marked source
    };

    /** What one instance does at the current cycle: the one
     *  per-instance test that each phase of tick() and the horizon in
     *  nextEventCycle() read. */
    enum class InstStep : std::uint8_t
    {
        Retire,       ///< finished, or its destination died: erase it
        CascadeAbort, ///< a source element can never compute
        Act,          ///< initiates an element (a load: arbitrates for
                      ///< ports) this cycle
        Wait,         ///< parked until a scheduled completion lands
    };

    /** @return @p inst's step in the current register-file state. */
    InstStep step(const VecInstance &inst) const;

    /** @return source operand value for element @p k. */
    std::uint64_t srcValue(const SrcSpec &src, unsigned k) const;

    unsigned fuBandwidth(OpClass cls) const;

    VectorFuConfig cfg_;
    VecRegFile &vrf_;
    /** Per-cycle FU issue slots by op class (constant; copied into a
     *  local each tick instead of re-deriving from the config). */
    unsigned fuSlots_[unsigned(OpClass::None) + 1] = {};
    std::vector<VecInstance> active_;
    std::vector<Completion> completions_;
    const VecExecContext *ctx_ = nullptr;
    FaultInjector *finj_ = nullptr;
    /** Per-tick scratch: completion cycle of each new access this
     *  cycle, by access id (kept allocated across ticks). */
    std::vector<std::pair<std::int32_t, Cycle>> accessDone_;
    std::uint64_t nextInstanceId_ = 1;
    ElemLoadId nextElemLoadId_ = 1;
    DatapathStats stats_;
};

} // namespace sdv

#endif // SDV_VECTOR_DATAPATH_HH
