/**
 * @file
 * Shared emission helpers for the synthetic workload kernels.
 */

#ifndef SDV_WORKLOADS_KERNEL_UTIL_HH
#define SDV_WORKLOADS_KERNEL_UTIL_HH

#include <functional>

#include "common/random.hh"
#include "isa/builder.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace workloads {

// --- footprint-model helpers (shared by every kernel's builder) ----

/** @return the variant of a sizing constant for @p fp. */
template <typename T>
inline T
byFootprint(Footprint fp, T base, T l2, T mem)
{
    switch (fp) {
      case Footprint::L2:
        return l2;
      case Footprint::Mem:
        return mem;
      case Footprint::Base:
      default:
        return base;
    }
}

/**
 * Outer pass count: base_passes * scale passes at the seed footprint.
 * A kernel whose per-pass work grows with its footprint divides that
 * by the same factor the per-pass trip count grew by (never below one
 * full pass), so the dynamic instruction count stays proportional to
 * the scale in every mode. Every scale-derived trip count comes from
 * here: a count beyond what a loop counter holds is fatal, naming
 * --scale and @p workload, never wrapped or clamped.
 */
std::int32_t scaledPasses(const char *workload, unsigned scale,
                          unsigned base_passes, unsigned growth = 1);

/**
 * @return @p words - 1, asserting that the extent is a power of two:
 * the index mask the kernels' random probes use.
 */
std::int32_t indexMask(std::size_t words);

/** @return words * 8 - 1, the byte mask over a power-of-two extent. */
std::int32_t byteMask(std::size_t words);

/**
 * AND-mask covering 1/@p divisor of a power-of-two extent:
 * words / divisor - 1. The validated way to derive the sub-extent
 * window masks some kernels use (scan/copy/start windows) — asserts
 * the power-of-two shape through indexMask, so a future non-pow2
 * retune fails loudly instead of silently skewing the emitted index
 * distribution.
 */
std::int32_t subIndexMask(std::size_t words, std::size_t divisor);

/** Registers conventionally used by the kernels. */
constexpr RegId scratch0 = 1, scratch1 = 2, scratch2 = 3, scratch3 = 4;
constexpr RegId spillTmp = 5;
constexpr RegId ptr0 = 10, ptr1 = 11, ptr2 = 12, ptr3 = 13;
constexpr RegId counter0 = 14, counter1 = 15;
constexpr RegId acc0 = 20, acc1 = 21, acc2 = 22;
constexpr RegId framePtr = 26, lcgState = 27, lcgMult = 28;

/** Fill @p count words starting at @p base with f(i). */
void fillWords(ProgramBuilder &b, Addr base, size_t count,
               const std::function<std::uint64_t(size_t)> &f);

/** Fill with uniform values in [0, bound). */
void fillRandomWords(ProgramBuilder &b, Addr base, size_t count,
                     Random &rng, std::uint64_t bound);

/** Fill with doubles f(i). */
void fillDoubles(ProgramBuilder &b, Addr base, size_t count,
                 const std::function<double(size_t)> &f);

/** Input perturbation of the FP builders under --fuzz-speculation: a
 *  small deterministic offset derived from the fuzz seed,
 *  exactly 0.0 at seed 0 so the seed kernels stay byte-identical. */
inline double
fuzzOffset(std::uint64_t fuzz_seed)
{
    return double(fuzz_seed % 9973) * 1e-7;
}

/**
 * Build a singly linked list of @p nodes nodes of @p node_words words
 * (word 0 is the next pointer; the rest is payload filled from @p rng).
 * @param shuffled true: random node order (irregular strides);
 *        false: sequential order (constant-stride pointer chasing)
 * @return the address of the head node
 */
Addr buildList(ProgramBuilder &b, const std::string &name, size_t nodes,
               size_t node_words, bool shuffled, Random &rng);

/**
 * Emit `ldi ctr, iters; L: body(); addi ctr, ctr, -1; bnez ctr, L`.
 * The body runs @p iters times; @p ctr must not be clobbered.
 */
void countedLoop(ProgramBuilder &b, RegId ctr, std::int32_t iters,
                 const std::function<void()> &body);

/**
 * Seed the in-register linear congruential generator (state in
 * lcgState, multiplier in lcgMult).
 */
void emitLcgInit(ProgramBuilder &b, std::uint64_t seed);

/**
 * Advance the LCG and leave a pseudo-random index in @p dst:
 * dst = (state >> 24) & mask (mask must be 2^k - 1).
 */
void emitLcgNext(ProgramBuilder &b, RegId dst, std::uint32_t mask);

/**
 * Emit @p slots "spill reloads": unoptimized compiled code reloads
 * locals and globals from fixed stack/global slots on every loop
 * iteration, which is where the paper's dominant stride-0 traffic
 * comes from (Section 2). Each slot is a distinct static load off
 * framePtr plus a short dependent (vectorizable) chain folded into
 * @p acc.
 */
void emitSpillReloads(ProgramBuilder &b, unsigned slots, RegId acc);

} // namespace workloads
} // namespace sdv

#endif // SDV_WORKLOADS_KERNEL_UTIL_HH
