/**
 * @file
 * Return address stack used to predict JR targets for call returns.
 */

#ifndef SDV_BRANCH_RAS_HH
#define SDV_BRANCH_RAS_HH

#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace sdv {

/** Fixed-depth circular return-address stack. */
class ReturnAddressStack
{
  public:
    /** @param depth number of entries */
    explicit ReturnAddressStack(unsigned depth = 16);

    /** Push a return address (on a call). */
    void push(Addr return_pc);

    /**
     * Pop the predicted return address (on a return).
     * @retval true and sets @p out when the stack is non-empty.
     */
    bool pop(Addr &out);

    /** @return current number of valid entries. */
    unsigned size() const { return size_; }

    /** @return stack capacity. */
    unsigned depth() const { return unsigned(stack_.size()); }

    /** Serialize the stack contents and pointers. */
    void
    saveState(Serializer &ser) const
    {
        ser.u32(unsigned(stack_.size()));
        ser.u32(top_);
        ser.u32(size_);
        for (Addr a : stack_)
            ser.u64(a);
    }

    /** Restore RAS state; @retval false on geometry mismatch. */
    bool
    loadState(Deserializer &des)
    {
        if (des.u32() != stack_.size()) {
            des.fail();
            return false;
        }
        top_ = des.u32();
        size_ = des.u32();
        for (Addr &a : stack_)
            a = des.u64();
        return des.ok();
    }

  private:
    std::vector<Addr> stack_;
    unsigned top_ = 0;  ///< index of the next free slot
    unsigned size_ = 0; ///< valid entries (<= depth)
};

} // namespace sdv

#endif // SDV_BRANCH_RAS_HH
