/**
 * @file
 * The compiled trace: a load-time translation of a program into a
 * contiguous array of pre-resolved micro-ops with direct handler
 * pointers, in the spirit of the straight-line traces an LLVM-side
 * speculative vectorizer pre-resolves before SIMD codegen.
 *
 * Each static instruction slot compiles into one CompiledTrace::Slot
 * carrying
 *  - a *step* handler (fills a full ExecRecord — the oracle-at-fetch
 *    path of the timing core and the fuzz divergence oracles), and a
 *    *fast* handler (architectural effects only — functional
 *    fast-forward, sample counting and end-of-run verification);
 *  - the decoded instruction (register offsets into ArchState);
 *  - the pre-folded immediate (sign-extended once, at compile time);
 *  - the pre-computed control target (pc + imm * instBytes) and
 *    fall-through pc, so no handler recomputes pc arithmetic.
 *
 * Handlers are per-opcode template instantiations: dispatch is one
 * indirect call through the slot (tail-call style), with no decode,
 * no opcode switch and no OpInfo lookups on the executed path.
 *
 * A trace is built once per Program (by predecodeAll) and shared
 * read-only by every Simulator in a sweep; it is also where
 * Program::instAt() reads the decoded instruction. Program::patch()
 * recompiles the affected slot and Program::append() extends the
 * trace.
 */

#ifndef SDV_ISA_TRACE_HH
#define SDV_ISA_TRACE_HH

#include <cstdint>
#include <vector>

#include "arch/arch_state.hh"
#include "arch/memory.hh"
#include "isa/instruction.hh"

namespace sdv {

struct ExecRecord;

/** The compiled form of one program: one micro-op per static slot. */
class CompiledTrace
{
  public:
    struct Slot;

    /** Full-record handler: execute the micro-op, filling @p rec
     *  exactly as executeOne() would (the interpreter is the
     *  bit-identity reference) and advancing @p st. */
    using StepFn = void (*)(const Slot &, ArchState &st, SparseMemory &,
                            ExecRecord &rec);

    /** Architectural-effects-only handler: registers, memory and pc;
     *  no record is materialized. */
    using FastFn = void (*)(const Slot &, ArchState &st, SparseMemory &);

    /** One pre-resolved micro-op. */
    struct Slot
    {
        StepFn step;         ///< full-record handler
        FastFn fast;         ///< architectural-only handler
        Instruction inst;    ///< decoded instruction (operand offsets)
        std::int64_t simm;   ///< immediate, sign-extended once
        Addr target;         ///< pc-relative control target (else 0)
        Addr fallthrough;    ///< pc + instBytes
    };

    /**
     * Compile every slot of a code image.
     *
     * @param code_base address of slot 0
     * @param words encoded instruction words, one per slot
     */
    CompiledTrace(Addr code_base, const std::vector<std::uint64_t> &words);

    /** @return the micro-op for the instruction at @p pc. */
    const Slot &
    slotAt(Addr pc) const
    {
        const std::size_t idx = std::size_t((pc - base_) / instBytes);
        sdv_assert(pc >= base_ && idx < slots_.size() &&
                       (pc - base_) % instBytes == 0,
                   "pc outside compiled trace: ", pc);
        return slots_[idx];
    }

    /** Recompile slot @p index from @p word (Program::patch). */
    void recompile(std::size_t index, std::uint64_t word);

    /** Compile and append one more slot (Program::append). */
    void appendSlot(std::uint64_t word);

    /** @return number of compiled slots. */
    std::size_t numSlots() const { return slots_.size(); }

    /** @return base address of slot 0. */
    Addr base() const { return base_; }

  private:
    Slot compileSlot(std::size_t index, std::uint64_t word) const;

    Addr base_;
    std::vector<Slot> slots_;
};

} // namespace sdv

#endif // SDV_ISA_TRACE_HH
