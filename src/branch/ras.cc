#include "branch/ras.hh"

#include "common/log.hh"

namespace sdv {

ReturnAddressStack::ReturnAddressStack(unsigned depth) : stack_(depth, 0)
{
    sdv_assert(depth >= 1, "RAS needs at least one entry");
}

void
ReturnAddressStack::push(Addr return_pc)
{
    stack_[top_] = return_pc;
    top_ = (top_ + 1) % depth();
    if (size_ < depth())
        ++size_;
}

bool
ReturnAddressStack::pop(Addr &out)
{
    if (size_ == 0)
        return false;
    top_ = (top_ + depth() - 1) % depth();
    out = stack_[top_];
    --size_;
    return true;
}

} // namespace sdv
