/**
 * @file
 * One dynamic (in-flight) instruction of the timing model, carrying the
 * oracle execution record, dependence information, vectorization state
 * and everything needed to undo its decode on a squash.
 */

#ifndef SDV_CORE_DYN_INST_HH
#define SDV_CORE_DYN_INST_HH

#include "arch/executor.hh"
#include "core/rename.hh"
#include "vector/table_of_loads.hh"
#include "vector/vrmt.hh"

namespace sdv {

/** How the scalar pipeline treats this dynamic instance. */
enum class InstMode : std::uint8_t
{
    Scalar,     ///< normal execution on a scalar FU / memory port
    Validation, ///< validates one vector element; no execution
};

/** A dynamic instruction. */
struct DynInst
{
    InstSeqNum seq = 0; ///< unique, monotonically increasing
    ExecRecord rec;     ///< oracle outcome (pc, inst, values, addr)

    // --- decode-time vectorization state --------------------------------
    InstMode mode = InstMode::Scalar;
    bool spawnedVector = false; ///< this decode created a vector instance
    VecRegRef spawnedDest;      ///< register allocated by the spawn
    VecRegRef valVreg;          ///< validation target register
    std::uint8_t valElem = 0;   ///< validation target element
    bool valElemFellBack = false; ///< validation reverted to scalar

    // --- dependences ----------------------------------------------------------
    InstSeqNum dep1 = 0; ///< producer of rs1 still in flight (0 = ready)
    InstSeqNum dep2 = 0; ///< producer of rs2 still in flight (0 = ready)

    // --- wakeup (Core::wakeConsumers) --------------------------------------
    /** Head of this entry's waiter list: its consumers, youngest
     *  first. Emptied when the entry completes. */
    DynInst *waiters = nullptr;
    /** Next consumer on the waiter list of dep1's (0) or dep2's (1)
     *  producer. A dep2 equal to dep1 is linked through slot 0 only. */
    DynInst *nextWaiter[2] = {nullptr, nullptr};

    // --- squash undo ----------------------------------------------------------
    bool wroteRename = false;   ///< decode overwrote rename[dest]
    RenameEntry prevRename;     ///< previous rename entry of dest
    bool touchedTl = false;     ///< decode updated the Table of Loads
    TlSnapshot tlSnap;          ///< TL entry before the update
    bool replacedVrmt = false;  ///< decode installed/replaced a VRMT entry
    bool prevVrmtExisted = false; ///< an entry existed before
    VrmtEntry prevVrmt;         ///< ... and this was it
    bool bumpedVrmtOffset = false; ///< validation advanced entry offset

    // --- pipeline status ---------------------------------------------------------
    bool inIq = false;       ///< waiting to issue (in iq_ once dep-ready)
    bool issued = false;     ///< sent to an FU / port
    bool completed = false;  ///< result available to consumers
    /** Distinct producers among dep1/dep2 that have not completed: the
     *  entry is dep-ready at 0. */
    std::uint8_t pendingDeps = 0;
    Cycle readyCycle = neverCycle; ///< scheduled completion cycle

    // --- control flow -----------------------------------------------------------
    bool predTaken = false;   ///< front-end direction prediction
    Addr predTarget = 0;      ///< front-end target prediction
    bool mispredicted = false; ///< prediction disagreed with the oracle

    // --- bookkeeping -----------------------------------------------------------------
    Cycle fetchCycle = 0;
    Cycle commitCycle = 0;

    /**
     * Return the entry to its decode-ready state when its ROB slot is
     * recycled. `rec` and the undo snapshots (prevRename, tlSnap,
     * prevVrmt) are deliberately left stale: rec is overwritten by the
     * very next statement of the decode stage, and the snapshots are
     * only ever read under their wroteRename / touchedTl /
     * replacedVrmt guards, which are cleared here. Skipping them
     * avoids rewriting ~200 bytes per fetched instruction.
     */
    void
    reset()
    {
        seq = 0;
        mode = InstMode::Scalar;
        spawnedVector = false;
        spawnedDest = VecRegRef{};
        valVreg = VecRegRef{};
        valElem = 0;
        valElemFellBack = false;
        dep1 = 0;
        dep2 = 0;
        waiters = nullptr;
        nextWaiter[0] = nextWaiter[1] = nullptr;
        wroteRename = false;
        touchedTl = false;
        replacedVrmt = false;
        prevVrmtExisted = false;
        bumpedVrmtOffset = false;
        inIq = false;
        issued = false;
        completed = false;
        pendingDeps = 0;
        readyCycle = neverCycle;
        predTaken = false;
        predTarget = 0;
        mispredicted = false;
        fetchCycle = 0;
        commitCycle = 0;
    }

    /** @return the static instruction. */
    const Instruction &inst() const { return rec.inst; }

    /** @return the program counter. */
    Addr pc() const { return rec.pc; }

    /** @return true for loads (any mode). */
    bool isLoad() const { return rec.inst.isLoad(); }

    /** @return true for stores. */
    bool isStore() const { return rec.inst.isStore(); }

    /** @return true for control instructions. */
    bool isControl() const { return rec.inst.isControl(); }

    /** @return true when this instance validates a vector element. */
    bool isValidation() const { return mode == InstMode::Validation; }
};

} // namespace sdv

#endif // SDV_CORE_DYN_INST_HH
