#include "sweep/sampling.hh"

#include "common/log.hh"
#include "sweep/checkpoint.hh"

namespace sdv {
namespace sweep {

namespace {

/** v * w / m with round-to-nearest in 128-bit intermediate. */
std::uint64_t
scaled(std::uint64_t v, std::uint64_t w, std::uint64_t m)
{
    if (m == 0)
        return 0;
    const unsigned __int128 num =
        (unsigned __int128)v * w + m / 2;
    return std::uint64_t(num / m);
}

} // namespace

SampleSet
captureSamples(const CoreConfig &cfg, const Program &prog,
               const SamplePlan &plan, std::uint64_t max_cycles)
{
    sdv_assert(plan.enabled(), "capture pass without a sample plan");
    SampleSet set;

    // One functional execution counts the dynamic length — orders of
    // magnitude cheaper than the timing model, and it pins the sample
    // positions and weights before any timing state exists.
    {
        FunctionalCore ref(prog, cfg.traceExec);
        ref.runToHalt(nullptr);
        set.totalInsts = ref.instCount();
    }

    const std::uint64_t warmup = plan.warmupInsts;
    if (set.totalInsts <= warmup + plan.samples) {
        warn("program too short for ", plan.samples,
             " samples after a ", warmup,
             "-inst warm-up; falling back to full runs");
        return set;
    }
    const std::uint64_t period =
        plan.periodInsts != 0
            ? plan.periodInsts
            : (set.totalInsts - warmup) / plan.samples;
    if (period == 0) {
        warn("sample period resolved to zero; falling back to full "
             "runs");
        return set;
    }
    set.periodInsts = period;

    // Region 0 is the cold start, [0, warmup): every configuration
    // measures it *exactly* (weight == measured instructions) from a
    // cold fork — cold caches and predictors make it far slower than
    // any warm window, so extrapolating it from one would bias the
    // whole estimate. No snapshot needed: empty bytes mean "fork from
    // reset".
    {
        SampleCheckpoint cold;
        cold.startInst = 0;
        cold.regionInsts = warmup;
        cold.measureInsts = warmup;
        set.samples.push_back(std::move(cold));
    }

    Simulator sim(cfg, prog);
    for (unsigned k = 0; k < plan.samples; ++k) {
        const std::uint64_t start = warmup + std::uint64_t(k) * period;
        if (start >= set.totalInsts)
            break; // an explicit --sample-period overshot the program
        if (!sim.advanceTo(start, max_cycles)) {
            // HALT inside the gap or budget blown: keep the samples
            // captured so far; the last one's weight covers the tail.
            warn("sample boundary ", start, " unreachable; capturing ",
                 k, " of ", plan.samples, " samples");
            break;
        }
        SampleCheckpoint sc;
        sc.startInst = start;
        // Region weight: this boundary to the next one (the last
        // warm region, adjusted below, runs to program end).
        sc.regionInsts = period;
        sc.measureInsts =
            std::min(plan.measureInsts, set.totalInsts - start);
        sc.bytes = Checkpoint::capture(sim);
        set.samples.push_back(std::move(sc));
    }
    if (set.samples.size() <= 1) {
        // Not one warm boundary was reachable: a sampled estimate
        // would extrapolate the cold start over the whole run. Full
        // runs are both cheaper and exact at this length.
        set.samples.clear();
        return set;
    }

    // The last warm region runs to the program end; together the
    // regions cover every committed instruction exactly once.
    set.samples.back().regionInsts =
        set.totalInsts - set.samples.back().startInst;
    return set;
}

SimResult
aggregateSamples(const SampleSet &set,
                 const std::vector<SimResult> &measured)
{
    sdv_assert(set.samples.size() == measured.size(),
               "sample set / measurement mismatch");
    SimResult agg;
    agg.finished = true;
    agg.verified = false; // estimates cannot be verified functionally

    for (std::size_t k = 0; k < measured.size(); ++k) {
        const SimResult &r = measured[k];
        const std::uint64_t w = set.samples[k].regionInsts;
        const std::uint64_t m = r.core.committedInsts;
        agg.finished = agg.finished && r.finished;
        if (m == 0)
            continue;
        // Every counter extrapolates alike: dst += src * w / m.
        const auto dst = statsBlocks(agg);
        const auto src = statsBlocks(r);
        for (std::size_t b = 0; b < dst.size(); ++b)
            for (std::size_t i = 0; i < dst[b].words.size(); ++i)
                dst[b].words[i] += scaled(src[b].words[i], w, m);
    }
    return agg;
}

std::uint64_t
foldSampleHashes(const std::vector<std::uint64_t> &hashes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint64_t v : hashes)
        h = (h ^ v) * 1099511628211ULL;
    return h;
}

} // namespace sweep
} // namespace sdv
