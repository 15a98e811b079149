/**
 * @file
 * Integration tests over the bundled SPEC95-like workloads and the
 * Figure 1/3 analyzers: every workload must run to completion and
 * verify on representative machine shapes, and the suite-level
 * statistics must stay in the bands the figures rely on.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "sim/stride_profiler.hh"
#include "sim/vect_analyzer.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace {

TEST(Workloads, RegistryListsTwelveInPaperOrder)
{
    const auto &all = allWorkloads();
    ASSERT_EQ(all.size(), 12u);
    EXPECT_EQ(all.front().name, "go");
    EXPECT_EQ(all[7].name, "vortex");
    EXPECT_EQ(all.back().name, "fpppp");
    EXPECT_NE(findWorkload("swim"), nullptr);
    EXPECT_EQ(findWorkload("nonesuch"), nullptr);
}

TEST(Workloads, ScaleGrowsDynamicLength)
{
    const Program p1 = buildWorkload("compress", 1);
    const Program p2 = buildWorkload("compress", 2);
    const VectAnalysis a1 = analyzeVectorizability(p1);
    const VectAnalysis a2 = analyzeVectorizability(p2);
    EXPECT_GT(a2.insts, a1.insts + a1.insts / 2);
}

/** Every workload, on the paper's headline machine, must finish,
 *  verify, and never commit a wrong validated value. */
class WorkloadRun : public ::testing::TestWithParam<int>
{};

TEST_P(WorkloadRun, VerifiesOnHeadlineMachine)
{
    const Workload &w = allWorkloads()[size_t(GetParam())];
    const Program prog = w.instantiate(1);
    const SimResult r =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(r.finished) << w.name;
    EXPECT_TRUE(r.verified) << w.name;
    EXPECT_EQ(r.engine.validationValueMismatches, 0u) << w.name;
    EXPECT_GT(r.core.committedInsts, 20000u) << w.name;
    // The mechanism must engage on every workload.
    EXPECT_GT(r.core.committedValidations, 100u) << w.name;
}

TEST_P(WorkloadRun, SdvNeverLosesToWideBus)
{
    // Cycle counts: vectorization must not slow any workload down by
    // more than noise (the paper reports gains everywhere).
    const Workload &w = allWorkloads()[size_t(GetParam())];
    const Program prog = w.instantiate(1);
    const SimResult v = simulate(makeConfig(4, 1, BusMode::WideBusSdv),
                                 prog, 50'000'000, false);
    const SimResult im = simulate(makeConfig(4, 1, BusMode::WideBus),
                                  prog, 50'000'000, false);
    EXPECT_LT(double(v.core.cycles), double(im.core.cycles) * 1.02) << w.name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadRun,
                         ::testing::Range(0, 12));

TEST(Analyzers, StrideProfileShapeMatchesPaper)
{
    // Suite-level claims of Section 2: stride 0 dominates both suites
    // and nearly all strided loads stay below 4 elements.
    double int0 = 0, fp0 = 0, int_lt4 = 0, fp_lt4 = 0;
    unsigned n_int = 0, n_fp = 0;
    for (const Workload &w : allWorkloads()) {
        const Program p = w.instantiate(1);
        const StrideProfile prof = profileStrides(p);
        if (w.isFp) {
            fp0 += prof.strideHist.fraction(0);
            fp_lt4 += prof.stridedBelow4Fraction();
            ++n_fp;
        } else {
            int0 += prof.strideHist.fraction(0);
            int_lt4 += prof.stridedBelow4Fraction();
            ++n_int;
        }
    }
    EXPECT_GT(int0 / n_int, 0.30); // stride 0 is the biggest bucket
    EXPECT_GT(fp0 / n_fp, 0.30);
    EXPECT_GT(int_lt4 / n_int, 0.90); // paper: 97.9%
    EXPECT_GT(fp_lt4 / n_fp, 0.75);   // paper: 81.3%
}

TEST(Analyzers, VectorizableFractionInPaperBand)
{
    double int_sum = 0, fp_sum = 0;
    unsigned n_int = 0, n_fp = 0;
    for (const Workload &w : allWorkloads()) {
        const Program p = w.instantiate(1);
        const double f = analyzeVectorizability(p).fraction();
        EXPECT_GT(f, 0.10) << w.name;
        EXPECT_LT(f, 0.90) << w.name;
        (w.isFp ? fp_sum : int_sum) += f;
        (w.isFp ? n_fp : n_int) += 1;
    }
    // Paper: ~47% (INT) and ~51% (FP); allow a generous band.
    EXPECT_GT(int_sum / n_int, 0.30);
    EXPECT_LT(int_sum / n_int, 0.60);
    EXPECT_GT(fp_sum / n_fp, 0.35);
    EXPECT_LT(fp_sum / n_fp, 0.70);
}

TEST(Analyzers, StoreKillSuppressesRewrittenWorkspaces)
{
    // fpppp's rewritten cells must not count as endlessly vectorizable.
    const Program p = buildWorkload("fpppp", 1);
    const VectAnalysis a = analyzeVectorizability(p);
    EXPECT_LT(a.fraction(), 0.75);
}

TEST(Analyzers, AnalyzerTracksEngineOrdering)
{
    // The three most vectorizable workloads by the analyzer should
    // also produce more validations than the three least vectorizable
    // ones in the timing engine.
    double most = 0, least = 0;
    for (const char *name : {"m88ksim", "swim", "applu"}) {
        const Program p = buildWorkload(name, 1);
        most += simulate(makeConfig(4, 1, BusMode::WideBusSdv), p,
                         50'000'000, false)
                    .validationFraction();
    }
    for (const char *name : {"go", "gcc", "vortex"}) {
        const Program p = buildWorkload(name, 1);
        least += simulate(makeConfig(4, 1, BusMode::WideBusSdv), p,
                          50'000'000, false)
                     .validationFraction();
    }
    EXPECT_GT(most, least);
}

} // namespace
} // namespace sdv
