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
 * docs/workloads.md for the footprint modes and the per-kernel sizing.
 *
 * Every kernel is one build function: its footprint model sizes the
 * arrays and trip counts for (scale, footprint mode) as locals, and
 * the builder allocates each array once. The program records its
 * named allocations, so the footprint describeFootprint() reports is
 * read from the built program. The base mode reproduces the seed
 * kernels exactly (byte-identical programs at any scale); the l2 and
 * mem modes grow the working set beyond the L1 and L2 capacities
 * while preserving each kernel's stride mix and vectorizable
 * fraction, the regime the paper's reference inputs ran in.
 */

#ifndef SDV_WORKLOADS_WORKLOAD_HH
#define SDV_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
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

/** @return the footprint named @p name ("base" / "l2" / "mem"), or
 *  nothing. The one name lookup behind parseFootprint, the
 *  --footprint flag and fuzz repro files. */
std::optional<Footprint> findFootprint(std::string_view name);

/** Parse a --footprint argument (fatal on anything unknown). */
Footprint parseFootprint(const std::string &name);

/** One registered workload: its identity and its build function. */
struct Workload
{
    std::string name;        ///< SPEC95 program it stands in for
    bool isFp = false;       ///< SpecFP95 member
    std::string description; ///< behaviour the kernel models

    /**
     * Emit the program for one (scale, footprint) pair.
     * @param fuzz_seed speculation-fuzzing input perturbation
     *        (--fuzz-speculation): XORed into every data RNG and LCG
     *        seed and folded into the FP fill patterns, so one workload
     *        yields a family of input-distinct but structurally
     *        identical programs; 0 reproduces the seed kernel
     */
    Program (*build)(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);

    /**
     * Build the program.
     * @param scale dynamic-length scale factor (>= 1; fatal on 0, and on
     *        a scale whose trip counts would not fit a loop counter)
     * @param fp working-set regime
     * @param fuzz_seed input perturbation (0 = exact seed kernel)
     */
    Program instantiate(unsigned scale, Footprint fp = Footprint::Base,
                        std::uint64_t fuzz_seed = 0) const;
};

/** @return all 12 workloads (8 integer then 4 FP, paper order). */
const std::vector<Workload> &allWorkloads();

/** @return the adversarial timing-channel pair (tc_victim, tc_attack;
 *  PR 6). Deliberately NOT part of allWorkloads(): the 12-workload
 *  suite is the fixed surface of every figure baseline. The pair is
 *  reachable by name (findWorkload) and through the "attack" plan. */
const std::vector<Workload> &attackWorkloads();

/**
 * @return the workloads of @p suite a run covers, in suite order: all
 * of them, or under @p quick (--quick) only the first two integer and
 * the first floating-point one.
 */
std::vector<const Workload *>
selectWorkloads(const std::vector<Workload> &suite, bool quick);

/** @return the workload named @p name (the 12-workload suite or the
 *  timing-channel pair), or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Build a workload's program. Fatal on an unknown name or an invalid
 *  (zero) scale — the requested values are reported, never clamped. */
Program buildWorkload(const std::string &name, unsigned scale = 1,
                      Footprint fp = Footprint::Base,
                      std::uint64_t fuzz_seed = 0);

/**
 * @return a one-line footprint summary for @p w at (@p scale, @p fp):
 * total allocated bytes plus the largest allocations, e.g.
 * "160.0 KiB (htab 128.0 KiB, input 16.0 KiB, ...)", read from the
 * built program's allocation record. Used by the sweep driver's --list
 * and its table1 plan.
 */
std::string describeFootprint(const Workload &w, unsigned scale,
                              Footprint fp);

// The kernels, one translation unit each (registry.cc lists them).
Program buildGo(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildM88ksim(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildGcc(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildCompress(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildLi(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildIjpeg(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildPerl(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildVortex(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildSwim(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildApplu(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildTurb3d(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildFpppp(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildTcVictim(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);
Program buildTcAttack(unsigned scale, Footprint fp, std::uint64_t fuzz_seed);

} // namespace sdv

#endif // SDV_WORKLOADS_WORKLOAD_HH
