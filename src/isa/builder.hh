/**
 * @file
 * Typed C++ program-emission API with label fixup and a data-space bump
 * allocator. All synthetic workloads are written against this builder.
 */

#ifndef SDV_ISA_BUILDER_HH
#define SDV_ISA_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace sdv {

/**
 * Incrementally builds a Program. Control-flow targets are expressed as
 * labels which may be bound before or after use; finish() resolves all
 * pending fixups.
 */
class ProgramBuilder
{
  public:
    /** Opaque label handle. */
    using Label = int;

    explicit ProgramBuilder(Addr code_base = Program::defaultCodeBase,
                            Addr data_base = Program::defaultDataBase);

    // --- labels ---------------------------------------------------------

    /** Create an unbound label. */
    Label newLabel();

    /** Bind @p label to the next emitted instruction. */
    void bind(Label label);

    /** Create a label bound to the next emitted instruction. */
    Label here();

    // --- integer ALU ----------------------------------------------------

    void add(RegId rd, RegId rs1, RegId rs2);
    void sub(RegId rd, RegId rs1, RegId rs2);
    void mul(RegId rd, RegId rs1, RegId rs2);
    void div(RegId rd, RegId rs1, RegId rs2);
    void and_(RegId rd, RegId rs1, RegId rs2);
    void or_(RegId rd, RegId rs1, RegId rs2);
    void xor_(RegId rd, RegId rs1, RegId rs2);
    void sll(RegId rd, RegId rs1, RegId rs2);
    void srl(RegId rd, RegId rs1, RegId rs2);
    void sra(RegId rd, RegId rs1, RegId rs2);
    void cmpeq(RegId rd, RegId rs1, RegId rs2);
    void cmplt(RegId rd, RegId rs1, RegId rs2);
    void cmple(RegId rd, RegId rs1, RegId rs2);
    void cmpult(RegId rd, RegId rs1, RegId rs2);

    void addi(RegId rd, RegId rs1, std::int32_t imm);
    void andi(RegId rd, RegId rs1, std::int32_t imm);
    void ori(RegId rd, RegId rs1, std::int32_t imm);
    void xori(RegId rd, RegId rs1, std::int32_t imm);
    void slli(RegId rd, RegId rs1, std::int32_t imm);
    void srli(RegId rd, RegId rs1, std::int32_t imm);
    void srai(RegId rd, RegId rs1, std::int32_t imm);
    void cmpeqi(RegId rd, RegId rs1, std::int32_t imm);
    void cmplti(RegId rd, RegId rs1, std::int32_t imm);

    /** rd = sign-extended 32-bit immediate. */
    void ldi(RegId rd, std::int32_t imm);

    /** rd = rs1 | (imm << 32). */
    void ldih(RegId rd, RegId rs1, std::int32_t imm);

    /** Materialize an arbitrary 64-bit constant (1-2 instructions). */
    void loadImm64(RegId rd, std::uint64_t value);

    /** Materialize an address (convenience over loadImm64). */
    void loadAddr(RegId rd, Addr addr) { loadImm64(rd, addr); }

    /** rd = rs (register move via ORI rd, rs, 0). */
    void mov(RegId rd, RegId rs);

    // --- floating point ---------------------------------------------------

    void fadd(RegId fd, RegId fs1, RegId fs2);
    void fsub(RegId fd, RegId fs1, RegId fs2);
    void fmul(RegId fd, RegId fs1, RegId fs2);
    void fdiv(RegId fd, RegId fs1, RegId fs2);
    void fneg(RegId fd, RegId fs1);
    void fabs_(RegId fd, RegId fs1);
    void fmov(RegId fd, RegId fs1);
    void fcmpeq(RegId rd, RegId fs1, RegId fs2);
    void fcmplt(RegId rd, RegId fs1, RegId fs2);
    void fcmple(RegId rd, RegId fs1, RegId fs2);
    void cvtif(RegId fd, RegId rs1);
    void cvtfi(RegId rd, RegId fs1);

    // --- memory -----------------------------------------------------------

    void ldq(RegId rd, RegId base, std::int32_t disp);
    void ldl(RegId rd, RegId base, std::int32_t disp);
    void fld(RegId fd, RegId base, std::int32_t disp);
    void stq(RegId value, RegId base, std::int32_t disp);
    void stl(RegId value, RegId base, std::int32_t disp);
    void fst(RegId value, RegId base, std::int32_t disp);

    // --- control ----------------------------------------------------------

    void beqz(RegId rs1, Label target);
    void bnez(RegId rs1, Label target);
    void bltz(RegId rs1, Label target);
    void bgez(RegId rs1, Label target);
    void br(Label target);
    void jal(Label target, RegId link = 31);
    void jr(RegId rs1);
    void jalr(RegId rd, RegId rs1);

    void nop();
    void halt();

    /** Emit a raw instruction (no label fixup applied). */
    void raw(const Instruction &inst);

    // --- data space -------------------------------------------------------

    /**
     * Allocate @p count 8-byte words of zeroed data; define @p name as a
     * symbol and record the allocation in the program (see
     * Program::allocations). @return the base address.
     */
    Addr allocWords(const std::string &name, size_t count);

    /** Allocate raw zeroed bytes (8-byte aligned); a named allocation
     *  is recorded as allocWords records it. */
    Addr allocBytes(const std::string &name, size_t bytes);

    /** Set the initial value of the 64-bit word at @p addr, which must
     *  lie inside the data allocated so far (a later poke of the same
     *  word overwrites it). */
    void pokeWord(Addr addr, std::uint64_t value);

    /** Set the initial value of a double at @p addr (as pokeWord). */
    void pokeDouble(Addr addr, double value);

    /** Define an arbitrary symbol in the output program. */
    void defineSymbol(const std::string &name, Addr value);

    /**
     * Look up a symbol defined so far.
     * @retval true and sets @p out when found.
     */
    bool symbol(const std::string &name, Addr &out) const;

    // --- finalization -------------------------------------------------------

    /** @return number of instructions emitted so far. */
    size_t numInsts() const { return program_.numInsts(); }

    /** @return pc that the next emitted instruction will occupy. */
    Addr nextPc() const { return program_.codeEnd(); }

    /**
     * Resolve all label fixups and return the finished program. The
     * builder must not be reused afterwards.
     */
    Program finish();

  private:
    /** Emit and track one instruction. */
    void emit(Opcode op, RegId rd, RegId rs1, RegId rs2, std::int32_t imm);

    /** Emit a control-flow instruction whose imm awaits label resolution. */
    void emitBranch(Opcode op, RegId rd, RegId rs1, Label target);

    std::int32_t branchOffset(size_t from_slot, size_t to_slot) const;

    struct Fixup
    {
        size_t slot;  ///< instruction index to patch
        Label label;  ///< target label
    };

    Program program_;
    Addr dataBase_;
    /** The initial data image from dataBase_: every allocation so far,
     *  zero-filled, with the pokes written in place. finish() moves it
     *  into the program. */
    std::vector<std::uint8_t> data_;
    std::vector<std::int64_t> labelSlot_; ///< -1 while unbound
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace sdv

#endif // SDV_ISA_BUILDER_HH
