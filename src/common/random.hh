/**
 * @file
 * Deterministic, seedable PRNG (xorshift128+). The simulator and the
 * workload generators must be bit-reproducible across runs, so no use of
 * std::rand or random_device anywhere in sdv.
 */

#ifndef SDV_COMMON_RANDOM_HH
#define SDV_COMMON_RANDOM_HH

#include <cstdint>
#include <string_view>

namespace sdv {

/**
 * Derive a deterministic per-job seed from (workload, config, base
 * seed): a pure function of the job's identity, never of scheduling
 * order or thread count. The sweep executor derives and records one
 * per job, and the speculation fuzzer draws each case from one; the
 * simulator itself draws no randomness at run time. The determinism
 * contract is that any future stochastic component (randomized
 * replacement, say) must draw only from this stream, keeping parallel
 * and serial sweeps byte-identical.
 */
inline std::uint64_t
deriveSeed(std::string_view workload, std::string_view config,
           std::uint64_t base_seed)
{
    std::uint64_t h = 1469598103934665603ULL ^ base_seed;
    auto mix = [&h](std::string_view s) {
        for (const char c : s)
            h = (h ^ std::uint8_t(c)) * 1099511628211ULL;
        h = (h ^ 0xff) * 1099511628211ULL; // field separator
    };
    mix(workload);
    mix(config);
    return h;
}

/** xorshift128+ generator; fast, decent quality, fully deterministic. */
class Random
{
  public:
    /** Construct from a seed; any seed (including 0) is valid. */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 seeding to avoid poor low-entropy states.
        std::uint64_t z = seed;
        for (auto *s : {&s0_, &s1_}) {
            z += 0x9e3779b97f4a7c15ULL;
            std::uint64_t t = z;
            t = (t ^ (t >> 30)) * 0xbf58476d1ce4e5b9ULL;
            t = (t ^ (t >> 27)) * 0x94d049bb133111ebULL;
            *s = t ^ (t >> 31);
        }
        if (s0_ == 0 && s1_ == 0)
            s1_ = 1;
    }

    /** @return a uniformly distributed 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** @return a value uniform in [0, bound); bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** @return a value uniform in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** @return true with probability @p percent / 100. */
    bool
    chancePercent(unsigned percent)
    {
        return below(100) < percent;
    }

    /** @return a double uniform in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * @return an independent child generator for stream @p stream_id.
     * Forking instead of sharing keeps sibling consumers (e.g. the
     * data and pointer initializers of one workload) decoupled: adding
     * draws to one stream never perturbs another.
     */
    Random
    fork(std::uint64_t stream_id)
    {
        return Random(next() ^
                      (stream_id * 0x9e3779b97f4a7c15ULL + stream_id));
    }

  private:
    std::uint64_t s0_;
    std::uint64_t s1_;
};

} // namespace sdv

#endif // SDV_COMMON_RANDOM_HH
