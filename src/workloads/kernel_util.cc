#include "workloads/kernel_util.hh"

#include <numeric>
#include <vector>

#include "common/log.hh"

namespace sdv {
namespace workloads {

std::int32_t
scaledPasses(const char *workload, unsigned scale, unsigned base_passes,
             unsigned growth)
{
    sdv_assert(base_passes >= 1 && growth >= 1,
               "pass scaling needs positive factors");
    const std::uint64_t total =
        std::uint64_t(base_passes) * scale / growth;
    if (total > 0x7fffffffu)
        fatal("workload '", workload, "': --scale ", scale,
              " needs a trip count of ", total, ", beyond the ",
              0x7fffffffu, " a loop counter holds");
    return std::int32_t(total < 1 ? 1 : total);
}

std::int32_t
indexMask(std::size_t words)
{
    sdv_assert(words >= 2 && (words & (words - 1)) == 0,
               "extent of ", words, " words must be a power of two for "
               "masking");
    sdv_assert(words - 1 <= 0x7fffffffu, "mask exceeds immediate range");
    return std::int32_t(words - 1);
}

std::int32_t
byteMask(std::size_t words)
{
    const std::int32_t m = indexMask(words);
    sdv_assert(m <= 0x0fffffff, "byte mask exceeds immediate range");
    return m * 8 + 7;
}

std::int32_t
subIndexMask(std::size_t words, std::size_t divisor)
{
    sdv_assert(divisor >= 1 && words % divisor == 0,
               "window divisor must divide the extent");
    return indexMask(words / divisor);
}

void
fillWords(ProgramBuilder &b, Addr base, size_t count,
          const std::function<std::uint64_t(size_t)> &f)
{
    for (size_t i = 0; i < count; ++i)
        b.pokeWord(base + Addr(i) * 8, f(i));
}

void
fillRandomWords(ProgramBuilder &b, Addr base, size_t count, Random &rng,
                std::uint64_t bound)
{
    for (size_t i = 0; i < count; ++i)
        b.pokeWord(base + Addr(i) * 8, rng.below(bound));
}

void
fillDoubles(ProgramBuilder &b, Addr base, size_t count,
            const std::function<double(size_t)> &f)
{
    for (size_t i = 0; i < count; ++i)
        b.pokeDouble(base + Addr(i) * 8, f(i));
}

Addr
buildList(ProgramBuilder &b, const std::string &name, size_t nodes,
          size_t node_words, bool shuffled, Random &rng)
{
    sdv_assert(node_words >= 1, "node needs at least the next pointer");
    const Addr pool = b.allocWords(name, nodes * node_words);

    // Link order: node order[i] -> node order[i+1].
    std::vector<size_t> order(nodes);
    std::iota(order.begin(), order.end(), 0);
    if (shuffled) {
        for (size_t i = nodes - 1; i > 0; --i) {
            const size_t j = size_t(rng.below(i + 1));
            std::swap(order[i], order[j]);
        }
    }

    auto node_addr = [&](size_t idx) {
        return pool + Addr(idx) * node_words * 8;
    };
    for (size_t i = 0; i < nodes; ++i) {
        const size_t cur = order[i];
        const size_t nxt = order[(i + 1) % nodes];
        b.pokeWord(node_addr(cur), node_addr(nxt));
        for (size_t w = 1; w < node_words; ++w)
            b.pokeWord(node_addr(cur) + Addr(w) * 8, rng.below(1000));
    }
    return node_addr(order[0]);
}

void
countedLoop(ProgramBuilder &b, RegId ctr, std::int32_t iters,
            const std::function<void()> &body)
{
    sdv_assert(iters >= 1, "loop needs at least one iteration");
    b.ldi(ctr, iters);
    const auto loop = b.here();
    body();
    b.addi(ctr, ctr, -1);
    b.bnez(ctr, loop);
}

void
emitLcgInit(ProgramBuilder &b, std::uint64_t seed)
{
    b.loadImm64(lcgState, seed);
    b.loadImm64(lcgMult, 6364136223846793005ULL);
}

void
emitLcgNext(ProgramBuilder &b, RegId dst, std::uint32_t mask)
{
    b.mul(lcgState, lcgState, lcgMult);
    b.addi(lcgState, lcgState, 12345);
    b.srli(dst, lcgState, 24);
    b.andi(dst, dst, std::int32_t(mask));
}

void
emitSpillReloads(ProgramBuilder &b, unsigned slots, RegId acc)
{
    for (unsigned k = 0; k < slots; ++k) {
        b.ldq(spillTmp, framePtr, std::int32_t(8 * k));
        b.xori(spillTmp, spillTmp, std::int32_t(k + 1));
        b.slli(spillTmp, spillTmp, 1);
        b.andi(spillTmp, spillTmp, 0x7fff);
        if (k % 2 == 0) {
            // Spill back to a slot that is never reloaded: store
            // traffic without a coherence conflict.
            b.stq(spillTmp, framePtr, std::int32_t(8 * (k + 16)));
        } else {
            b.add(acc, acc, spillTmp);
        }
    }
}

} // namespace workloads
} // namespace sdv
