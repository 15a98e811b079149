/**
 * @file
 * Small bit-manipulation helpers used across the simulator.
 */

#ifndef SDV_COMMON_BITUTILS_HH
#define SDV_COMMON_BITUTILS_HH

#include <cstdint>

namespace sdv {

/** @return true when @p v is a power of two (and non-zero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** @return ceil(log2(v)); v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return floorLog2(v) + (isPowerOf2(v) ? 0 : 1);
}

/** Extract bits [lo, lo+len) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned len)
{
    return (v >> lo) & ((len >= 64) ? ~0ULL : ((1ULL << len) - 1));
}

/** Insert @p field into bits [lo, lo+len) of a zeroed word. */
constexpr std::uint64_t
insertBits(std::uint64_t field, unsigned lo, unsigned len)
{
    return (field & ((len >= 64) ? ~0ULL : ((1ULL << len) - 1)))
           << lo;
}

/** Sign-extend the low @p len bits of @p v to 64 bits. */
constexpr std::int64_t
signExtend(std::uint64_t v, unsigned len)
{
    const unsigned shift = 64 - len;
    return static_cast<std::int64_t>(v << shift) >> shift;
}

/** @return the index of the lowest set bit; @p v must be non-zero. */
inline unsigned
countTrailingZeros(std::uint64_t v)
{
    return unsigned(__builtin_ctzll(v));
}

/** @return the number of set bits in @p v. */
inline unsigned
popCount(std::uint64_t v)
{
    return unsigned(__builtin_popcountll(v));
}

/** @return a mask of the low @p n bits (n <= 64). */
constexpr std::uint64_t
lowBits(unsigned n)
{
    return n >= 64 ? ~0ULL : (1ULL << n) - 1;
}

/** Align @p a down to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** Align @p a up to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t a, std::uint64_t align)
{
    return (a + align - 1) & ~(align - 1);
}

} // namespace sdv

#endif // SDV_COMMON_BITUTILS_HH
