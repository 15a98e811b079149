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
    bool issued = false;     ///< sent to an FU / port
    bool completed = false;  ///< result available to consumers
    /** Distinct producers among dep1/dep2 that have not completed: the
     *  entry is dep-ready at 0. */
    std::uint8_t pendingDeps = 0;
    Cycle readyCycle = neverCycle; ///< scheduled completion cycle

    // --- control flow -----------------------------------------------------------
    bool mispredicted = false; ///< prediction disagreed with the oracle

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
        dep1 = 0;
        dep2 = 0;
        waiters = nullptr;
        nextWaiter[0] = nextWaiter[1] = nullptr;
        wroteRename = false;
        touchedTl = false;
        replacedVrmt = false;
        prevVrmtExisted = false;
        bumpedVrmtOffset = false;
        issued = false;
        completed = false;
        pendingDeps = 0;
        readyCycle = neverCycle;
        mispredicted = false;
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

    /** @return true while the entry waits to issue: in iq_ once its
     *  producers have all completed. */
    bool
    waitsToIssue() const
    {
        return !issued && !completed && !isValidation();
    }
};

} // namespace sdv

#endif // SDV_CORE_DYN_INST_HH
