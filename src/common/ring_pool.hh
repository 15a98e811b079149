/**
 * @file
 * Fixed-capacity FIFO ring buffer with stable slot addresses, used for
 * pooled allocation of hot per-instruction structures (the ROB and the
 * fetch queue). Slots are default-constructed once at construction and
 * recycled by assignment, so pushing never touches the heap and
 * pointers handed out to other pipeline structures stay valid until the
 * entry is popped.
 */

#ifndef SDV_COMMON_RING_POOL_HH
#define SDV_COMMON_RING_POOL_HH

#include <cstddef>
#include <vector>

#include "common/log.hh"

namespace sdv {

/** Bounded FIFO of recycled T slots. T must be default-constructible
 *  and provide reset(), which returns a recycled slot to its
 *  just-constructed state (possibly skipping fields the owner
 *  guarantees to overwrite or to read only under guards). */
template <typename T>
class RingPool
{
  public:
    /** @param capacity maximum live entries (fixed for the lifetime) */
    explicit RingPool(std::size_t capacity) : slots_(capacity) {}

    /** @return true when no entry is live. */
    bool empty() const { return size_ == 0; }

    /** @return number of live entries. */
    std::size_t size() const { return size_; }

    /** @return maximum number of live entries. */
    std::size_t capacity() const { return slots_.size(); }

    /** @return true when every slot is live. */
    bool full() const { return size_ == slots_.size(); }

    /** @return the oldest live entry. */
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** @return the youngest live entry. */
    T &back() { return slots_[slot(size_ - 1)]; }
    const T &back() const { return slots_[slot(size_ - 1)]; }

    /** @return live entry @p i (0 = oldest). */
    T &operator[](std::size_t i) { return slots_[slot(i)]; }
    const T &operator[](std::size_t i) const { return slots_[slot(i)]; }

    /**
     * Claim the next slot, recycle it via T::reset() and return it.
     * The reference stays valid until the entry is popped.
     */
    T &
    emplaceBack()
    {
        sdv_assert(size_ < slots_.size(), "ring pool overflow");
        T &s = slots_[slot(size_)];
        s.reset();
        ++size_;
        return s;
    }

    /** Retire the oldest entry (its slot becomes recyclable). */
    void
    popFront()
    {
        sdv_assert(size_ > 0, "pop from empty ring pool");
        ++head_;
        if (head_ == slots_.size())
            head_ = 0;
        --size_;
    }

    /** Discard the youngest entry (e.g. a decode that did not stick). */
    void
    popBack()
    {
        sdv_assert(size_ > 0, "pop from empty ring pool");
        --size_;
    }

    /** Drop every live entry. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t
    slot(std::size_t i) const
    {
        std::size_t s = head_ + i;
        if (s >= slots_.size())
            s -= slots_.size();
        return s;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace sdv

#endif // SDV_COMMON_RING_POOL_HH
