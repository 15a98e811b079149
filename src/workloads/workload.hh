/**
 * @file
 * Registry of the synthetic SPEC95-like workloads.
 *
 * SPEC95 binaries and reference inputs are not redistributable, so each
 * benchmark of the paper's evaluation (the 8 SpecInt95 programs and the
 * 4 SpecFP95 programs used: swim, applu, turb3d, fpppp) is replaced by
 * a synthetic kernel engineered to the program's published behaviour:
 * its stride mix (Figure 1), its vectorizable fraction (Figure 3), its
 * branch-predictability class and its pointer/array balance. See
 * DESIGN.md ("Substitutions") for the full rationale.
 *
 * Every kernel is instantiated through a two-stage WorkloadSpec layer:
 * a *footprint model* maps (scale, footprint mode) to a FootprintPlan —
 * named array extents, pointer-heap sizes and iteration counts — and a
 * *builder* emits the program from the resolved plan. The base mode
 * reproduces the seed kernels exactly (byte-identical programs at any
 * scale); the l2 and mem modes grow the working set beyond the L1 and
 * L2 capacities while preserving each kernel's stride mix and
 * vectorizable fraction, the regime the paper's reference inputs ran
 * in. See docs/workloads.md.
 */

#ifndef SDV_WORKLOADS_WORKLOAD_HH
#define SDV_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.hh"

namespace sdv {

/** Working-set regime a kernel is instantiated for. */
enum class Footprint
{
    Base, ///< seed footprint: L1-resident arrays, byte-identical programs
    L2,   ///< working set beyond L1D but L2-resident (~2x L1D)
    Mem   ///< working set beyond L2 (~4x L2 or more)
};

/** @return "base" / "l2" / "mem". */
const char *footprintName(Footprint fp);

/** Parse a --footprint argument (fatal on anything unknown). */
Footprint parseFootprint(const std::string &name);

/**
 * The resolved sizing of one kernel instantiation: every array extent,
 * pointer-heap size and iteration count the builder emits, as computed
 * by the workload's footprint model for one (scale, footprint) pair.
 * Extents are in 64-bit words (the kernels' universal unit); trip
 * counts are dynamic iteration counts.
 */
struct FootprintPlan
{
    unsigned scale = 1;
    Footprint footprint = Footprint::Base;

    /** Speculation-fuzzing input perturbation (--fuzz-speculation):
     *  XORed into every builder-side data RNG and LCG seed, and folded
     *  into the FP builders' fill patterns, so one workload yields a
     *  family of input-distinct but structurally identical programs.
     *  0 (the default) reproduces the seed kernels byte-identically. */
    std::uint64_t fuzzSeed = 0;

    std::vector<std::pair<std::string, std::size_t>> extents; ///< words
    std::vector<std::pair<std::string, std::int64_t>> trips;

    /** Declare extent @p name of @p words words. */
    void
    extent(const std::string &name, std::size_t words)
    {
        extents.emplace_back(name, words);
    }

    /** Declare iteration count @p name. */
    void
    trip(const std::string &name, std::int64_t count)
    {
        trips.emplace_back(name, count);
    }

    /** @return extent @p name in words (fatal when undeclared). */
    std::size_t words(const std::string &name) const;

    /** @return extent @p name in words as a loop trip count. */
    std::int32_t wordTrip(const std::string &name) const;

    /** @return trip count @p name (fatal when undeclared). */
    std::int32_t count(const std::string &name) const;

    /** @return words(name) - 1, asserting the extent is a power of
     *  two — the index masks the kernels' random probes use. */
    std::int32_t indexMask(const std::string &name) const;

    /** @return words(name) * 8 - 1 (power-of-two byte mask). */
    std::int32_t byteMask(const std::string &name) const;

    /** @return total initialized data footprint in bytes. */
    std::size_t totalBytes() const;
};

/** One registered workload: identity plus its two-stage instantiation
 *  (footprint model -> plan -> program builder). */
struct WorkloadSpec
{
    std::string name;        ///< SPEC95 program it stands in for
    bool isFp = false;       ///< SpecFP95 member
    std::string description; ///< behaviour the kernel models

    /** Footprint model: extents and trip counts for (scale, mode). */
    FootprintPlan (*plan)(unsigned scale, Footprint fp);

    /** Emit the program from a resolved plan. */
    Program (*build)(const FootprintPlan &plan);

    /**
     * Resolve the model and build the program.
     * @param scale dynamic-length scale factor (>= 1; fatal on 0)
     * @param fp working-set regime
     * @param fuzz_seed input perturbation (0 = exact seed kernel)
     */
    Program instantiate(unsigned scale, Footprint fp = Footprint::Base,
                        std::uint64_t fuzz_seed = 0) const;
};

/** Legacy name: most call sites predate the footprint layer. */
using Workload = WorkloadSpec;

/** @return all 12 workloads (8 integer then 4 FP, paper order). */
const std::vector<WorkloadSpec> &allWorkloads();

/** @return the adversarial timing-channel pair (tc_victim, tc_attack;
 *  PR 6). Deliberately NOT part of allWorkloads(): the 12-workload
 *  suite is the fixed surface of every figure baseline. The pair is
 *  reachable by name (findWorkload) and through the "attack" plan. */
const std::vector<WorkloadSpec> &attackWorkloads();

/**
 * @return the workloads of @p suite a run covers, in suite order: all
 * of them, or under @p quick (--quick) only the first two integer and
 * the first floating-point one.
 */
std::vector<const WorkloadSpec *>
selectWorkloads(const std::vector<WorkloadSpec> &suite, bool quick);

/** @return the workload named @p name (the 12-workload suite or the
 *  timing-channel pair), or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Build a workload's program. Fatal on an unknown name or an invalid
 *  (zero) scale — the requested values are reported, never clamped. */
Program buildWorkload(const std::string &name, unsigned scale = 1,
                      Footprint fp = Footprint::Base,
                      std::uint64_t fuzz_seed = 0);

/**
 * @return a one-line footprint summary for @p w at (@p scale, @p fp):
 * total initialized bytes plus the dominant extents, e.g.
 * "160.0 KiB (htab 128.0 KiB, input 16.0 KiB, ...)". Used by the
 * sweep driver's --list and the Table 1 bench.
 */
std::string describeFootprint(const WorkloadSpec &w, unsigned scale,
                              Footprint fp);

/** @return the 8 SpecInt95-like workload names in paper order. */
std::vector<std::string> intWorkloadNames();

/** @return the 4 SpecFP95-like workload names in paper order. */
std::vector<std::string> fpWorkloadNames();

// Individual kernel models and builders (one translation unit each).
FootprintPlan planGo(unsigned scale, Footprint fp);
Program buildGo(const FootprintPlan &plan); ///< go: branchy board evaluation
FootprintPlan planM88ksim(unsigned scale, Footprint fp);
Program buildM88ksim(const FootprintPlan &plan); ///< m88ksim: CPU simulator loop
FootprintPlan planGcc(unsigned scale, Footprint fp);
Program buildGcc(const FootprintPlan &plan); ///< gcc: tree/list compiler passes
FootprintPlan planCompress(unsigned scale, Footprint fp);
Program buildCompress(const FootprintPlan &plan); ///< compress: LZW hashing
FootprintPlan planLi(unsigned scale, Footprint fp);
Program buildLi(const FootprintPlan &plan); ///< li: lisp cons-cell interpreter
FootprintPlan planIjpeg(unsigned scale, Footprint fp);
Program buildIjpeg(const FootprintPlan &plan); ///< ijpeg: block image transforms
FootprintPlan planPerl(unsigned scale, Footprint fp);
Program buildPerl(const FootprintPlan &plan); ///< perl: bytecode interpreter
FootprintPlan planVortex(unsigned scale, Footprint fp);
Program buildVortex(const FootprintPlan &plan); ///< vortex: OO database store
FootprintPlan planSwim(unsigned scale, Footprint fp);
Program buildSwim(const FootprintPlan &plan); ///< swim: shallow-water stencil
FootprintPlan planApplu(unsigned scale, Footprint fp);
Program buildApplu(const FootprintPlan &plan); ///< applu: banded solver
FootprintPlan planTurb3d(unsigned scale, Footprint fp);
Program buildTurb3d(const FootprintPlan &plan); ///< turb3d: strided FFT passes
FootprintPlan planFpppp(unsigned scale, Footprint fp);
Program buildFpppp(const FootprintPlan &plan); ///< fpppp: huge FP basic blocks
FootprintPlan planTcVictim(unsigned scale, Footprint fp);
Program buildTcVictim(const FootprintPlan &plan); ///< secret-length chains
FootprintPlan planTcAttack(unsigned scale, Footprint fp);
Program buildTcAttack(const FootprintPlan &plan); ///< victim + probe phases

} // namespace sdv

#endif // SDV_WORKLOADS_WORKLOAD_HH
