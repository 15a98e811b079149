/**
 * @file
 * The Vector Register Map Table (VRMT) of Section 3.2 / Figure 5: a
 * 4-way, 64-set table mapping the PC of a vectorized instruction to its
 * vector register, the next element offset to validate, and the source
 * operands captured when the vector instance was created.
 */

#ifndef SDV_VECTOR_VRMT_HH
#define SDV_VECTOR_VRMT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "vector/src_spec.hh"

namespace sdv {

/** One VRMT entry (Figure 5, plus load-chaining metadata). */
struct VrmtEntry
{
    bool valid = false;
    Addr pc = 0;
    VecRegRef vreg;           ///< destination register incarnation
    std::uint8_t offset = 0;  ///< next element a scalar instance validates
    SrcSpec src1;             ///< first source captured at spawn
    SrcSpec src2;             ///< second source captured at spawn
    bool isLoad = false;      ///< load-produced entry
    std::int64_t stride = 0;  ///< load: predicted stride
    Addr baseAddr = 0;        ///< load: address of the spawning instance
    std::uint64_t lastUse = 0;

    // Eager load chaining (EngineConfig::eagerChainLoads): the
    // successor incarnation spawned ahead of the current one's
    // exhaustion, swapped in when the current offset runs out.
    bool hasNext = false;
    VecRegRef nextVreg;
    Addr nextBase = 0;        ///< address of the current incarnation's
                              ///< last element (successor spawn base)

    /** Fault injection (PR 6): the stride/base fields of this entry
     *  were corrupted at install, so the address-misspeculation it
     *  provokes is attributed to the injection, not to a genuine
     *  stride misprediction. Inherited by chained successors spawned
     *  from the corrupted fields. */
    bool faultInjected = false;
};

/** The VRMT. */
class Vrmt
{
  public:
    /**
     * @param sets number of sets (64 in the paper)
     * @param ways associativity (4 in the paper)
     */
    explicit Vrmt(unsigned sets = 64, unsigned ways = 4);

    /** @return the entry for @p pc, or nullptr. */
    VrmtEntry *lookup(Addr pc);

    /** @return the entry for @p pc, or nullptr (const). */
    const VrmtEntry *lookup(Addr pc) const;

    /**
     * @return the entry for @p pc without touching LRU state. The
     * event-skipping clock probes "would decode block?" ahead of any
     * real decode, so the probe must be side-effect free.
     */
    const VrmtEntry *peek(Addr pc) const;

    /**
     * Replay @p n lookup() LRU touches of @p pc in one step: exactly
     * what n consecutive blocked-decode cycles would have done to the
     * use clock (nothing else touches the VRMT while decode is
     * blocked and the pipeline is otherwise quiescent).
     */
    void touch(Addr pc, std::uint64_t n);

    /**
     * Install (or replace) the entry for @p pc; the LRU entry of the
     * set is evicted when full.
     * @return reference to the installed entry
     */
    VrmtEntry &install(const VrmtEntry &entry);

    /** Invalidate the entry for @p pc if present. */
    void invalidate(Addr pc);

    /**
     * Invalidate every entry whose destination register is @p ref
     * (store conflict path, Section 3.6).
     *
     * @param[out] load_pcs when non-null, receives the PCs of the
     *             invalidated *load* entries so the caller can reset
     *             their Table of Loads confidence ("executed in scalar
     *             mode until the engine detects again", Section 3.1)
     * @param[out] successors when non-null, receives the pending
     *             eagerly-spawned successors (hasNext/nextVreg) of the
     *             invalidated entries — the caller must kill them too,
     *             or they leak as unreachable live registers
     * @return number invalidated
     */
    unsigned invalidateByVreg(VecRegRef ref,
                              std::vector<Addr> *load_pcs = nullptr,
                              std::vector<VecRegRef> *successors =
                                  nullptr);

    /** Invalidate everything (context switch semantics, Section 3.2). */
    void invalidateAll();

    /** Run @p fn over each valid entry. */
    void forEach(const std::function<void(VrmtEntry &)> &fn);

    /** @return entry capacity. */
    unsigned capacity() const { return sets_ * ways_; }

    /** @return number of valid entries. */
    unsigned occupancy() const;

    /** Storage cost in bytes (18 bytes per entry per the paper). */
    std::uint64_t
    storageBytes() const
    {
        return std::uint64_t(capacity()) * 18;
    }

  private:
    unsigned setIndex(Addr pc) const;

    unsigned sets_;
    unsigned ways_;
    std::vector<VrmtEntry> entries_;
    std::uint64_t useClock_ = 0;
};

} // namespace sdv

#endif // SDV_VECTOR_VRMT_HH
