#include "isa/program.hh"

#include "common/log.hh"
#include "common/serialize.hh"
#include "isa/trace.hh"

namespace sdv {

Program::Program(Addr code_base) : codeBase_(code_base)
{
    sdv_assert(code_base % instBytes == 0, "misaligned code base");
}

Program::~Program() = default;
Program::Program(Program &&other) noexcept = default;
Program &Program::operator=(Program &&other) noexcept = default;

Program::Program(const Program &other)
    : codeBase_(other.codeBase_), entry_(other.entry_), code_(other.code_),
      data_(other.data_), allocs_(other.allocs_), symbols_(other.symbols_)
{
    // trace_ deliberately not copied: a patched copy must not mutate
    // the original's compiled trace. The copy rebuilds lazily.
}

Program &
Program::operator=(const Program &other)
{
    if (this != &other) {
        codeBase_ = other.codeBase_;
        entry_ = other.entry_;
        code_ = other.code_;
        data_ = other.data_;
        allocs_ = other.allocs_;
        symbols_ = other.symbols_;
        trace_.reset();
    }
    return *this;
}

Addr
Program::append(const Instruction &inst)
{
    const Addr pc = codeEnd();
    code_.push_back(inst.encode());
    if (trace_)
        trace_->appendSlot(code_.back());
    return pc;
}

void
Program::patch(size_t index, const Instruction &inst)
{
    sdv_assert(index < code_.size(), "patch out of range");
    code_[index] = inst.encode();
    if (trace_)
        trace_->recompile(index, code_[index]);
}

std::uint64_t
Program::encodedAt(Addr pc) const
{
    sdv_assert(validPc(pc), "bad instruction address ", pc);
    return code_[(pc - codeBase_) / instBytes];
}

const Instruction &
Program::instAt(Addr pc) const
{
    sdv_assert(validPc(pc), "bad instruction address ", pc);
    return trace().slotAt(pc).inst;
}

void
Program::predecodeAll() const
{
    trace();
}

const CompiledTrace &
Program::trace() const
{
    if (!trace_)
        trace_ = std::make_unique<CompiledTrace>(codeBase_, code_);
    return *trace_;
}

std::uint64_t
Program::identityHash() const
{
    std::uint64_t h = fnv1a(nullptr, 0);
    auto mix = [&h](std::uint64_t v) {
        std::uint8_t bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = std::uint8_t(v >> (8 * i));
        h = fnv1a(bytes, sizeof(bytes), h);
    };
    mix(codeBase_);
    mix(entry());
    mix(code_.size());
    for (std::uint64_t w : code_)
        mix(w);
    return h;
}

void
Program::addData(DataSegment seg)
{
    data_.push_back(std::move(seg));
}

void
Program::defineSymbol(const std::string &name, Addr value)
{
    symbols_[name] = value;
}

bool
Program::symbol(const std::string &name, Addr &out) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        return false;
    out = it->second;
    return true;
}

} // namespace sdv
