/**
 * @file
 * Unit tests for the functional substrate: sparse memory, architectural
 * state, and the executor's instruction semantics.
 */

#include <deque>

#include <gtest/gtest.h>

#include "arch/executor.hh"
#include "isa/builder.hh"

namespace sdv {
namespace {

TEST(SparseMemory, ZeroFillBeforeWrite)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read64(0x1000), 0u);
    EXPECT_EQ(mem.read32(0xdeadbeef), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory mem;
    mem.write64(0x2000, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read64(0x2000), 0x1122334455667788ULL);
    EXPECT_EQ(mem.read32(0x2000), 0x55667788u);
    EXPECT_EQ(mem.read32(0x2004), 0x11223344u);
    EXPECT_EQ(mem.read(0x2007, 1), 0x11u);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory mem;
    const Addr addr = SparseMemory::pageBytes - 4; // straddles page 0/1
    mem.write64(addr, 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(mem.read64(addr), 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(SparseMemory, EqualsIgnoresUntouchedZeroPages)
{
    SparseMemory a, b;
    a.write64(0x5000, 0); // touched but still zero
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));
    a.write64(0x5000, 7);
    EXPECT_FALSE(a.equals(b));
    b.write64(0x5000, 7);
    EXPECT_TRUE(a.equals(b));
}

TEST(ArchState, ZeroRegisterIsHardwired)
{
    ArchState st;
    st.setReg(0, 42);
    EXPECT_EQ(st.reg(0), 0u);
    st.setReg(5, 42);
    EXPECT_EQ(st.reg(5), 42u);
}

TEST(ArchState, DoubleRoundTrip)
{
    ArchState st;
    st.setRegFromDouble(33, 3.25);
    EXPECT_DOUBLE_EQ(st.regAsDouble(33), 3.25);
}

/** Run a tiny program functionally and return the core. */
FunctionalCore
runProgram(Program &&prog, std::uint64_t max_insts = 100000)
{
    // deque: stable element addresses keep FunctionalCore's program
    // reference valid across later calls
    static std::deque<Program> keeper;
    keeper.push_back(std::move(prog));
    FunctionalCore core(keeper.back());
    core.run(max_insts);
    return core;
}

TEST(Executor, IntegerArithmetic)
{
    ProgramBuilder b;
    b.ldi(1, 20);
    b.ldi(2, 22);
    b.add(3, 1, 2);     // 42
    b.sub(4, 1, 2);     // -2
    b.mul(5, 1, 2);     // 440
    b.div(6, 2, 1);     // 1
    b.cmplt(7, 4, 0);   // -2 < 0 -> 1
    b.halt();

    FunctionalCore core = runProgram(b.finish());
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.state().reg(3), 42u);
    EXPECT_EQ(std::int64_t(core.state().reg(4)), -2);
    EXPECT_EQ(core.state().reg(5), 440u);
    EXPECT_EQ(core.state().reg(6), 1u);
    EXPECT_EQ(core.state().reg(7), 1u);
}

TEST(Executor, DivisionEdgeCases)
{
    ProgramBuilder b;
    b.ldi(1, 5);
    b.ldi(2, 0);
    b.div(3, 1, 2); // divide by zero -> 0
    b.ldi(4, -1);
    b.loadImm64(5, 0x8000000000000000ULL); // INT64_MIN
    b.div(6, 5, 4); // overflow -> INT64_MIN
    b.halt();

    FunctionalCore core = runProgram(b.finish());
    EXPECT_EQ(core.state().reg(3), 0u);
    EXPECT_EQ(core.state().reg(6), 0x8000000000000000ULL);
}

TEST(Executor, LoadImm64Variants)
{
    ProgramBuilder b;
    b.loadImm64(1, 0x12345678ULL);
    b.loadImm64(2, 0xffffffffffffffffULL);
    b.loadImm64(3, 0xdeadbeefcafef00dULL);
    b.loadImm64(4, 0x80000000ULL); // needs LDIH (sign ext would set top)
    b.halt();

    FunctionalCore core = runProgram(b.finish());
    EXPECT_EQ(core.state().reg(1), 0x12345678ULL);
    EXPECT_EQ(core.state().reg(2), 0xffffffffffffffffULL);
    EXPECT_EQ(core.state().reg(3), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(core.state().reg(4), 0x80000000ULL);
}

TEST(Executor, MemoryOps)
{
    ProgramBuilder b;
    const Addr buf = b.allocWords("buf", 4);
    b.loadAddr(1, buf);
    b.ldi(2, 77);
    b.stq(2, 1, 0);
    b.ldq(3, 1, 0);
    b.stl(2, 1, 8);
    b.ldl(4, 1, 8);
    b.ldi(5, -5);
    b.stl(5, 1, 16);
    b.ldl(6, 1, 16); // sign-extended reload
    b.halt();

    FunctionalCore core = runProgram(b.finish());
    EXPECT_EQ(core.state().reg(3), 77u);
    EXPECT_EQ(core.state().reg(4), 77u);
    EXPECT_EQ(std::int64_t(core.state().reg(6)), -5);
}

TEST(Executor, FloatingPoint)
{
    ProgramBuilder b;
    const Addr buf = b.allocWords("fbuf", 2);
    b.pokeDouble(buf, 1.5);
    b.pokeDouble(buf + 8, 2.5);
    b.loadAddr(1, buf);
    b.fld(33, 1, 0);
    b.fld(34, 1, 8);
    b.fadd(35, 33, 34); // 4.0
    b.fmul(36, 33, 34); // 3.75
    b.fdiv(37, 34, 33); // 1.666..
    b.fcmplt(2, 33, 34); // 1
    b.cvtfi(3, 35);      // 4
    b.ldi(4, 9);
    b.cvtif(38, 4);      // 9.0
    b.halt();

    FunctionalCore core = runProgram(b.finish());
    EXPECT_DOUBLE_EQ(core.state().regAsDouble(35), 4.0);
    EXPECT_DOUBLE_EQ(core.state().regAsDouble(36), 3.75);
    EXPECT_NEAR(core.state().regAsDouble(37), 2.5 / 1.5, 1e-12);
    EXPECT_EQ(core.state().reg(2), 1u);
    EXPECT_EQ(core.state().reg(3), 4u);
    EXPECT_DOUBLE_EQ(core.state().regAsDouble(38), 9.0);
}

TEST(Executor, LoopAndBranches)
{
    // sum = 0; for (i = 10; i != 0; --i) sum += i;  => 55
    ProgramBuilder b;
    b.ldi(1, 10);
    b.ldi(2, 0);
    auto loop = b.here();
    b.add(2, 2, 1);
    b.addi(1, 1, -1);
    b.bnez(1, loop);
    b.halt();

    FunctionalCore core = runProgram(b.finish());
    EXPECT_EQ(core.state().reg(2), 55u);
    EXPECT_EQ(core.instCount(), 2u + 3u * 10u + 1u);
}

TEST(Executor, JumpAndLink)
{
    ProgramBuilder b;
    auto func = b.newLabel();
    auto done = b.newLabel();
    b.ldi(1, 5);
    b.jal(func);        // call
    b.br(done);
    b.bind(func);
    b.addi(1, 1, 100);  // body: r1 += 100
    b.jr(31);           // return
    b.bind(done);
    b.halt();

    FunctionalCore core = runProgram(b.finish());
    EXPECT_EQ(core.state().reg(1), 105u);
}

TEST(Executor, BackwardBranchOffsetsEncodeNegative)
{
    ProgramBuilder b;
    b.ldi(1, 3);
    auto loop = b.here();
    b.addi(1, 1, -1);
    b.bnez(1, loop);
    b.halt();
    Program prog = b.finish();

    // The bnez at slot 2 targets slot 1 -> imm == -1.
    const Instruction bnez = prog.instAt(prog.codeBase() + 2 * instBytes);
    EXPECT_EQ(bnez.op, Opcode::BNEZ);
    EXPECT_EQ(bnez.imm, -1);
}

TEST(Executor, HaltStopsRun)
{
    ProgramBuilder b;
    b.halt();
    b.ldi(1, 1); // never reached
    FunctionalCore core = runProgram(b.finish());
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.state().reg(1), 0u);
    EXPECT_EQ(core.instCount(), 1u);
}

TEST(Executor, RecordFieldsForLoadStore)
{
    ProgramBuilder b;
    const Addr buf = b.allocWords("buf", 1);
    b.loadAddr(1, buf);
    b.ldi(2, 123);
    b.stq(2, 1, 0);
    b.ldq(3, 1, 0);
    b.halt();
    static std::deque<Program> keeper;
    keeper.push_back(b.finish());
    FunctionalCore core(keeper.back());

    // Skip the address materialization (2 slots possible) + ldi.
    ExecRecord rec;
    do {
        rec = core.step();
    } while (!rec.inst.isStore());
    EXPECT_TRUE(rec.isMem);
    EXPECT_TRUE(rec.isStore);
    EXPECT_EQ(rec.addr, buf);
    EXPECT_EQ(rec.size, 8u);
    EXPECT_EQ(rec.value, 123u);

    rec = core.step();
    EXPECT_TRUE(rec.inst.isLoad());
    EXPECT_EQ(rec.addr, buf);
    EXPECT_EQ(rec.value, 123u);
    EXPECT_TRUE(rec.writesReg);
}

TEST(Loader, CodeAndDataLoaded)
{
    ProgramBuilder b;
    const Addr buf = b.allocWords("buf", 2);
    b.pokeWord(buf, 11);
    b.pokeWord(buf + 8, 22);
    b.nop();
    b.halt();
    Program prog = b.finish();

    SparseMemory mem;
    const Addr entry = loadProgram(prog, mem);
    EXPECT_EQ(entry, prog.codeBase());
    EXPECT_EQ(mem.read64(buf), 11u);
    EXPECT_EQ(mem.read64(buf + 8), 22u);
    Instruction first;
    ASSERT_TRUE(Instruction::decode(mem.read64(prog.codeBase()), first));
    EXPECT_EQ(first.op, Opcode::NOP);
}

TEST(Loader, LaterPokeOfTheSameWordWins)
{
    ProgramBuilder b;
    const Addr buf = b.allocWords("buf", 2);
    b.pokeWord(buf + 8, 5);
    b.pokeWord(buf + 8, 6);
    b.pokeDouble(buf, 1.5);
    b.pokeWord(buf, 7);
    b.halt();
    SparseMemory mem;
    loadProgram(b.finish(), mem);
    EXPECT_EQ(mem.read64(buf), 7u);
    EXPECT_EQ(mem.read64(buf + 8), 6u);
}

TEST(Loader, PokeThatCannotLandPanicsAtThePoke)
{
    // Nothing allocated yet: there is no word to set.
    EXPECT_DEATH(ProgramBuilder().pokeWord(Program::defaultDataBase, 1),
                 "poke outside allocated data");

    // After finish() the image belongs to the program.
    EXPECT_DEATH(
        {
            ProgramBuilder b;
            const Addr buf = b.allocWords("buf", 1);
            b.halt();
            b.finish();
            b.pokeWord(buf, 1);
        },
        "poke after finish");

    // Outside every allocation: below the data base, past the end, or
    // straddling it.
    ProgramBuilder b;
    const Addr buf = b.allocWords("buf", 2);
    EXPECT_DEATH(b.pokeWord(buf - 8, 1), "poke outside allocated data");
    EXPECT_DEATH(b.pokeWord(buf + 16, 1), "poke outside allocated data");
    EXPECT_DEATH(b.pokeDouble(buf + 12, 1.0), "poke outside allocated data");
}

} // namespace
} // namespace sdv
