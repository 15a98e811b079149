/**
 * @file
 * Functional (architectural) execution of the mini-ISA. Used standalone
 * as the reference simulator and inside the timing model as the
 * oracle-at-decode executor (the SimpleScalar sim-outorder convention).
 */

#ifndef SDV_ARCH_EXECUTOR_HH
#define SDV_ARCH_EXECUTOR_HH

#include <cstdint>

#include "arch/arch_state.hh"
#include "arch/memory.hh"
#include "isa/program.hh"

namespace sdv {

class CompiledTrace;

/** Everything observable about one executed dynamic instruction. */
struct ExecRecord
{
    Addr pc = 0;           ///< instruction address
    Instruction inst;      ///< the decoded instruction
    Addr nextPc = 0;       ///< successor pc actually taken
    bool taken = false;    ///< control transfer redirected the pc
    bool isMem = false;    ///< memory operation
    bool isStore = false;  ///< store (subset of isMem)
    Addr addr = 0;         ///< effective address (when isMem)
    unsigned size = 0;     ///< access size in bytes (when isMem)
    std::uint64_t value = 0; ///< register result or store value
    bool writesReg = false;  ///< value went to inst.rd
    bool halted = false;   ///< this instruction was HALT
    std::uint64_t srcValue1 = 0; ///< rs1 value at execution
    std::uint64_t srcValue2 = 0; ///< rs2 value at execution
    std::uint64_t prevMemValue = 0; ///< store: memory value overwritten
};

/**
 * Execute the instruction at @p state.pc, updating state and memory.
 *
 * @param prog program image (source of instruction words)
 * @param state architectural state (pc advanced)
 * @param mem data memory
 * @return the execution record
 */
ExecRecord executeOne(const Program &prog, ArchState &state,
                      SparseMemory &mem);

/** Load a program image (code + data) into @p mem; @return entry pc. */
Addr loadProgram(const Program &prog, SparseMemory &mem);

/**
 * A complete functional simulation context: program + state + memory,
 * loaded and ready to step.
 */
class FunctionalCore
{
  public:
    /**
     * Load @p prog into a fresh memory image and reset the state.
     *
     * @param use_trace execute through the program's compiled trace
     *        (the default); false falls back to the interpreter, the
     *        bit-identity reference (--no-trace).
     */
    explicit FunctionalCore(const Program &prog, bool use_trace = true);

    /** Execute one instruction into caller storage (the oracle-at-fetch
     *  hot path: the record is overwritten in place, no copy). Must not
     *  be called after halt. */
    void stepInto(ExecRecord &rec);

    /** Execute one instruction. Must not be called after halt. */
    ExecRecord
    step()
    {
        ExecRecord rec;
        stepInto(rec);
        return rec;
    }

    /** Run until HALT or until @p max_insts more have executed, using
     *  the fast (architectural-effects-only) handlers when tracing.
     *  @return number of instructions executed. */
    std::uint64_t run(std::uint64_t max_insts);

    /** Run to HALT, FNV-1a-hashing each instruction's pc (HALT
     *  included) — the committed-stream fingerprint the timing core's
     *  commitPcHash() is verified against.
     *  @return number of instructions executed. */
    std::uint64_t runToHalt(std::uint64_t *pc_hash);

    /** @return true once HALT has executed. */
    bool halted() const { return halted_; }

    /** @return dynamic instruction count so far. */
    std::uint64_t instCount() const { return instCount_; }

    /** @return the architectural state. */
    const ArchState &state() const { return state_; }

    /** @return mutable architectural state (for test setup). */
    ArchState &state() { return state_; }

    /** @return the memory image. */
    const SparseMemory &memory() const { return mem_; }

    /** @return mutable memory (for test setup). */
    SparseMemory &memory() { return mem_; }

    /** @return the program being executed. */
    const Program &program() const { return prog_; }

    /** Serialize execution progress + full architectural state. The
     *  memory goes as a delta: only the pages that differ from the
     *  program's load image (loadProgram) or are missing from it. */
    void
    saveState(Serializer &ser) const
    {
        ser.b(halted_);
        ser.u64(instCount_);
        state_.saveState(ser);
        SparseMemory loaded;
        loadProgram(prog_, loaded);
        mem_.saveState(ser, loaded);
    }

    /** Restore execution progress + architectural state from a
     *  checkpoint (the program itself is identity-checked upstream).
     *  The memory delta is written over the current image, so this
     *  core must be fresh: still holding the load image. */
    void
    loadState(Deserializer &des)
    {
        halted_ = des.b();
        instCount_ = des.u64();
        state_.loadState(des);
        mem_.loadState(des);
    }

  private:
    const Program &prog_;
    const CompiledTrace *trace_ = nullptr; ///< null: interpreter path
    ArchState state_;
    SparseMemory mem_;
    bool halted_ = false;
    std::uint64_t instCount_ = 0;
};

/** Build the reset-time architectural state for @p prog. */
ArchState initialState(const Program &prog);

} // namespace sdv

#endif // SDV_ARCH_EXECUTOR_HH
