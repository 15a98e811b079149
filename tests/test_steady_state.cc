/**
 * @file
 * Steady-state parity tests (PR 5): the never-quiesced SDV engine vs
 * the same machine context-switched at boundaries.
 *
 * Root cause of the historical 10-18% continuous-vs-post-boundary gap
 * on m88ksim/perl (docs/performance.md, "Steady-state behavior"):
 * cache-line phase alignment of the speculative load chain. A load
 * chain advances in lockstep vlen*stride-byte steps forever, so the
 * alignment of its incarnation bases relative to the L1 line is fixed
 * at chain establishment. With the paper's last-element chaining, an
 * unluckily aligned chain issues each new line's first element only
 * one loop iteration before the validation that consumes it, exposing
 * the miss latency on the dependent dispatch branch every other
 * incarnation. A quiesce re-establishes the chain at a fresh
 * alignment — usually, but not always, a lucky one.
 *
 * These tests pin (a) the documented bound on the default
 * (paper-faithful) configuration's gap, (b) that --eager-chain
 * (EngineConfig::eagerChainLoads) eliminates it (<= 2%), and (c) the
 * fetch-stall attribution counter that identifies the mechanism.
 */

#include <deque>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace {

std::deque<Program> &
keeper()
{
    static std::deque<Program> progs;
    return progs;
}

const Program &
keep(Program &&p)
{
    p.predecodeAll();
    keeper().push_back(std::move(p));
    return keeper().back();
}

struct GapResult
{
    SimResult cont;     ///< continuous (never quiesced)
    SimResult quiesced; ///< vector state dropped every 10k insts

    /** Continuous slowdown relative to the quiesced run. */
    double
    gap() const
    {
        return double(cont.core.cycles) / double(quiesced.core.cycles) - 1.0;
    }
};

GapResult
measureGap(const std::string &workload, bool eager_chain)
{
    const Program &prog = keep(buildWorkload(workload, 1, Footprint::L2));
    CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    cfg.engine.eagerChainLoads = eager_chain;

    GapResult r;
    {
        Simulator sim(cfg, prog);
        r.cont = sim.run(200'000'000, /*verify=*/true);
    }
    {
        Simulator sim(cfg, prog);
        r.quiesced =
            sim.run(200'000'000, /*verify=*/true, /*quiesce=*/10'000);
    }
    EXPECT_TRUE(r.cont.finished && r.cont.verified) << workload;
    EXPECT_TRUE(r.quiesced.finished && r.quiesced.verified) << workload;
    EXPECT_EQ(r.cont.engine.validationValueMismatches, 0u) << workload;
    EXPECT_EQ(r.quiesced.engine.validationValueMismatches, 0u)
        << workload;
    return r;
}

TEST(SteadyState, DefaultConfigGapStaysWithinDocumentedBound)
{
    // The paper-faithful configuration (last-element chaining) keeps
    // an alignment-dependent gap; the documented bound is 25%, and the
    // quiesced run must never be dramatically *slower* either.
    for (const std::string w : {"m88ksim", "perl"}) {
        const GapResult r = measureGap(w, /*eager=*/false);
        EXPECT_LE(r.gap(), 0.25) << w << " gap " << r.gap();
        EXPECT_GE(r.gap(), -0.05) << w << " gap " << r.gap();
    }
}

TEST(SteadyState, EagerChainClosesTheGapToTwoPercent)
{
    // With eager load chaining the element loads lead their consumers
    // by a full incarnation regardless of line alignment: continuous
    // runs are as fast as post-boundary runs (the ISSUE 5 acceptance
    // bound).
    for (const std::string w : {"m88ksim", "perl"}) {
        const GapResult r = measureGap(w, /*eager=*/true);
        EXPECT_LE(double(r.cont.core.cycles),
                  double(r.quiesced.core.cycles) * 1.02)
            << w << " gap " << r.gap();
        // And it beats the default configuration outright, not just
        // relative to its own quiesced twin.
        const GapResult d = measureGap(w, /*eager=*/false);
        EXPECT_LT(r.cont.core.cycles, d.cont.core.cycles) << w;
    }
}

TEST(SteadyState, FetchStallAttributionIdentifiesValidationWaits)
{
    // The instrumentation that located the root cause: in the default
    // configuration the majority of m88ksim's continuous fetch-stall
    // cycles wait on a validation (fetch serialized behind vector
    // element computation); eager chaining removes exactly that
    // component.
    const GapResult def = measureGap("m88ksim", /*eager=*/false);
    ASSERT_GT(def.cont.core.fetchStallCycles, 0u);
    const double frac =
        double(def.cont.core.fetchStallValWaitCycles) /
        double(def.cont.core.fetchStallCycles);
    EXPECT_GT(frac, 0.40) << "validation-wait fraction " << frac;

    const GapResult eager = measureGap("m88ksim", /*eager=*/true);
    EXPECT_LT(eager.cont.core.fetchStallValWaitCycles,
              def.cont.core.fetchStallValWaitCycles / 4);
    EXPECT_LT(eager.cont.core.fetchStallCycles,
              def.cont.core.fetchStallCycles);
}

TEST(SteadyState, QuiesceIntervalPreservesArchitecturalResults)
{
    // Periodic vector quiesces change timing only: the committed
    // stream and final state still verify, and the committed counts
    // match the continuous run.
    for (const std::string w : {"compress", "go"}) {
        const Program &prog = keep(buildWorkload(w, 1, Footprint::Base));
        const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
        Simulator cont(cfg, prog);
        const SimResult rc = cont.run(200'000'000, true);
        Simulator qui(cfg, prog);
        const SimResult rq = qui.run(200'000'000, true, 5'000);
        EXPECT_TRUE(rc.verified && rq.verified) << w;
        EXPECT_EQ(rc.core.committedInsts, rq.core.committedInsts) << w;
        EXPECT_EQ(cont.core().commitPcHash(), qui.core().commitPcHash())
            << w;
        // The quiesced machine really did drop vector state: it
        // releases more (shorter-lived) registers.
        EXPECT_GE(rq.fates.regsReleased, rc.fates.regsReleased) << w;
    }
}

} // namespace
} // namespace sdv
