/**
 * @file
 * A loadable program image: encoded code, initialized data segments, an
 * entry point and a symbol table.
 */

#ifndef SDV_ISA_PROGRAM_HH
#define SDV_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace sdv {

class CompiledTrace;

/** A contiguous run of initialized bytes in the data space. */
struct DataSegment
{
    Addr base = 0;                  ///< first byte address
    std::vector<std::uint8_t> bytes; ///< contents
};

/** One named array the builder reserved in the data space. */
struct DataAllocation
{
    std::string name;
    std::size_t bytes = 0; ///< reserved size (8-byte aligned)
};

/**
 * A complete program: code, data, entry point, symbols.
 *
 * Code lives at @ref codeBase with one 8-byte encoded instruction per
 * slot; helper accessors translate between addresses and slot indices.
 */
class Program
{
  public:
    /** Default base of the code region. */
    static constexpr Addr defaultCodeBase = 0x10000;

    /** Default base of the data region. */
    static constexpr Addr defaultDataBase = 0x1000000;

    /** Default top-of-stack (r30 at reset). */
    static constexpr Addr defaultStackTop = 0x7fff0000;

    explicit Program(Addr code_base = defaultCodeBase);
    ~Program();

    /** The compiled trace is per-image: a copy may be patched
     *  independently, so it recompiles its own trace on demand. */
    Program(const Program &other);
    Program &operator=(const Program &other);
    Program(Program &&other) noexcept;
    Program &operator=(Program &&other) noexcept;

    /** Append one encoded instruction; @return its address. */
    Addr append(const Instruction &inst);

    /** Overwrite the instruction in slot @p index (for fixups). */
    void patch(size_t index, const Instruction &inst);

    /** @return number of static instructions. */
    size_t numInsts() const { return code_.size(); }

    /** @return base address of the code region. */
    Addr codeBase() const { return codeBase_; }

    /** @return address one past the last instruction. */
    Addr codeEnd() const { return codeBase_ + code_.size() * instBytes; }

    /** @return true when @p pc addresses a valid instruction slot. */
    bool
    validPc(Addr pc) const
    {
        return pc >= codeBase_ && pc < codeEnd() &&
               (pc - codeBase_) % instBytes == 0;
    }

    /** @return the encoded instruction word at @p pc. */
    std::uint64_t encodedAt(Addr pc) const;

    /**
     * @return the decoded instruction at @p pc: its compiled-trace
     * slot's (the first call builds the trace; see trace()). patch()
     * rewrites the slot in place. The reference is invalidated by
     * append() (the trace may reallocate) and destruction/move —
     * copy the Instruction if the program may still grow.
     */
    const Instruction &instAt(Addr pc) const;

    /**
     * Build the compiled trace up front. A program shared by
     * concurrent simulators (the sweep executor runs one per thread
     * over the same image) must be pre-decoded: the lazy build of
     * trace() and instAt() writes a mutable side-table, which would
     * race otherwise. After this call, both are read-only.
     */
    void predecodeAll() const;

    /**
     * @return the compiled trace of this program (built on first use;
     * predecodeAll() builds it so sweep jobs share it read-only).
     *
     * Slots stay in sync with the code image: patch() recompiles the
     * affected slot and append() extends the trace. Trace slots shift
     * under append() — re-fetch after growing the program.
     */
    const CompiledTrace &trace() const;

    /**
     * @return an FNV-1a hash over code base, entry point and every
     * encoded instruction word: the program identity a checkpoint is
     * bound to (restoring onto a different program is rejected).
     */
    std::uint64_t identityHash() const;

    /** Set the entry point (defaults to codeBase). */
    void setEntry(Addr entry) { entry_ = entry; }

    /** @return the entry point. */
    Addr entry() const { return entry_ ? entry_ : codeBase_; }

    /** Add an initialized data segment. */
    void addData(DataSegment seg);

    /** @return all data segments. */
    const std::vector<DataSegment> &dataSegments() const { return data_; }

    /** Record a named allocation (ProgramBuilder::allocBytes). */
    void addAllocation(DataAllocation a) { allocs_.push_back(std::move(a)); }

    /** @return the named allocations, in allocation order: the
     *  footprint describeFootprint() reports. */
    const std::vector<DataAllocation> &allocations() const { return allocs_; }

    /** Define a symbol. */
    void defineSymbol(const std::string &name, Addr value);

    /**
     * Look up a symbol.
     * @retval true and sets @p out when found.
     */
    bool symbol(const std::string &name, Addr &out) const;

    /** @return the whole symbol table. */
    const std::map<std::string, Addr> &symbols() const { return symbols_; }

    /** @return raw encoded code words. */
    const std::vector<std::uint64_t> &codeWords() const { return code_; }

  private:
    Addr codeBase_;
    Addr entry_ = 0;
    std::vector<std::uint64_t> code_;
    /** Lazily-built compiled form (see trace()), which also holds the
     *  decoded instructions; never shared between Program instances —
     *  copies rebuild their own. Mutable: building it does not change
     *  the program's observable state. */
    mutable std::unique_ptr<CompiledTrace> trace_;
    std::vector<DataSegment> data_;
    std::vector<DataAllocation> allocs_;
    std::map<std::string, Addr> symbols_;
};

} // namespace sdv

#endif // SDV_ISA_PROGRAM_HH
