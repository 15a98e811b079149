/**
 * @file
 * Speculation fuzzing with a divergence oracle (--fuzz-speculation).
 *
 * A fuzz campaign runs every workload through N fuzzed samples. Each
 * sample is drawn from the deterministic common/random.hh stream
 * (deriveSeed of the workload name, the sample index and the base
 * seed — never host entropy) and perturbs everything the SDV engine
 * speculates about:
 *
 *  - chain alignment: a randomized --quiesce-interval kills transient
 *    vector state at arbitrary points mid-chain, and eager chaining
 *    shifts the spawn phase of every successor incarnation;
 *  - stride phases: randomized vlen / vector-register count /
 *    TL confidence move where each chain's incarnations fall relative
 *    to cache lines and to each other;
 *  - workload inputs: a fuzz seed is XORed into the kernels' data RNGs
 *    so every sample executes the same code over different data
 *    (different secret-dependent trip counts, probe sequences, FP
 *    fills);
 *  - optionally, speculative-state fault injection (sim/
 *    fault_injection.hh) runs *under* the fuzzer, stressing the
 *    detection machinery at the same time.
 *
 * Every sample then faces a divergence oracle: the identical program is
 * run on the same machine with the SDV engine disabled, and the sample
 * hard-fails when either run fails functional verification, when the
 * committed-PC streams differ (hash or instruction count), or when any
 * injected fault escaped detection. The first divergence is minimized
 * (knobs reset one at a time while the failure reproduces) and dumped
 * as a replayable JSON file consumed by --fuzz-replay.
 */

#ifndef SDV_SWEEP_FUZZ_HH
#define SDV_SWEEP_FUZZ_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace sweep {

/** One fuzzed sample: a workload instantiation plus every perturbed
 *  machine knob. A FuzzCase is self-contained and replayable — the
 *  repro file is exactly a serialized FuzzCase. */
struct FuzzCase
{
    std::string workload;
    unsigned scale = 1;
    Footprint footprint = Footprint::Base;
    unsigned sample = 0;       ///< sample index within the campaign
    std::uint64_t baseSeed = 0; ///< campaign base seed (bookkeeping)

    // Drawn perturbations.
    std::uint64_t fuzzSeed = 0;        ///< workload input perturbation
    std::uint64_t quiesceInterval = 0; ///< 0 = no mid-run quiesce
    bool eagerChain = false;
    unsigned vlen = 4;
    unsigned numVregs = 128;
    unsigned ports = 1;
    std::uint8_t tlConfidence = 2;
    FaultPlan fault; ///< optional concurrent fault injection
};

/** Outcome of one fuzzed sample against its oracle. */
struct FuzzOutcome
{
    FuzzCase c;
    bool diverged = false;
    std::string reason; ///< empty when the sample passed

    std::uint64_t sdvHash = 0;
    std::uint64_t refHash = 0;
    std::uint64_t sdvInsts = 0;
    std::uint64_t refInsts = 0;

    // Fault-injection accounting (zero when the case injects none).
    std::uint64_t elemFlips = 0;
    std::uint64_t vrmtFlips = 0;
    std::uint64_t tlFlips = 0;    ///< TL stride-table metadata flips
    std::uint64_t gmrbbFlips = 0; ///< shadow-GMRBB label flips
    std::uint64_t faultsDetected = 0; ///< validation + VRMT detects
    std::uint64_t chainDemotions = 0;
};

/** Campaign options. */
struct FuzzOptions
{
    unsigned samples = 8;       ///< fuzzed samples per workload
    std::uint64_t baseSeed = 0; ///< --seed
    unsigned jobs = 1;          ///< worker threads
    unsigned scale = 1;
    Footprint footprint = Footprint::Base;
    bool quick = false;    ///< first two INT + first FP workloads only
    bool eventSkip = true;
    bool withFaults = true; ///< arm fault injection on half the samples
    std::uint64_t maxCycles = 200'000'000;
    /** Where a minimized divergence repro is written. */
    std::string reproPath = "fuzz_repro.json";
};

/** Campaign result: per-sample outcomes in deterministic order
 *  (workload-major, sample index within). */
struct FuzzReport
{
    std::vector<FuzzOutcome> outcomes;
    unsigned divergences = 0;
    std::uint64_t totalElemFlips = 0;
    std::uint64_t totalVrmtFlips = 0;
    std::uint64_t totalTlFlips = 0;
    std::uint64_t totalGmrbbFlips = 0;
    std::uint64_t totalFaultsDetected = 0;
    std::string reproPath; ///< non-empty when a repro file was written
};

/**
 * Draw sample @p sample of @p workload: a pure function of
 * (workload, sample, base seed) via deriveSeed, independent of worker
 * scheduling and of every other sample.
 * @param with_faults allow the draw to arm fault injection (it does on
 *        every second sample)
 */
FuzzCase drawFuzzCase(const std::string &workload, unsigned scale,
                      Footprint fp, unsigned sample,
                      std::uint64_t base_seed, bool with_faults);

/**
 * Run one fuzzed sample and its divergence oracle. Both runs execute
 * with functional verification on; the outcome reports the first
 * failed check as its reason.
 */
FuzzOutcome runFuzzCase(const FuzzCase &c, bool event_skip,
                        std::uint64_t max_cycles);

/**
 * Run the full campaign (every registered workload, honouring quick,
 * times @p opt.samples) on a worker pool. On divergence the first
 * failing case (in deterministic order) is minimized and written to
 * opt.reproPath.
 */
FuzzReport runFuzzCampaign(const FuzzOptions &opt);

/** Serialize @p c (plus @p reason) as a replayable JSON repro file.
 *  @return false when the file could not be written in full */
bool writeFuzzRepro(const std::string &path, const FuzzCase &c,
                    const std::string &reason);

/** Parse a repro file written by writeFuzzRepro. @return false (with
 *  @p err set) on malformed input; unknown keys are ignored. */
bool loadFuzzRepro(const std::string &path, FuzzCase &c,
                   std::string *err);

/** The minimizer's reproduction check: does this candidate still
 *  fail? Exposed so minimization is testable against synthetic
 *  predicates without running the simulator. */
using FuzzPredicate = std::function<bool(const FuzzCase &)>;

/**
 * Greedy one-pass minimization: try resetting each perturbed knob to
 * its default (faults off, no quiesce, default geometry, seed inputs)
 * and keep every reset under which @p diverges still holds. @return
 * the simplified case (equal to @p c when nothing could be removed).
 * Runs the predicate at most once per knob.
 */
FuzzCase minimizeFuzzCaseGreedy(const FuzzCase &c,
                                const FuzzPredicate &diverges);

/**
 * Delta-debugging minimization: the greedy pass, then every *pair* of
 * knob resets applied together, re-greedying after each accepted pair
 * until a fixpoint. Escapes the coupled-knob traps greedy cannot (a
 * divergence that needs knob A XOR knob B reset survives a pair reset
 * but defeats every single reset). The result is never larger than
 * the greedy result.
 */
FuzzCase minimizeFuzzCase(const FuzzCase &c,
                          const FuzzPredicate &diverges);

/** minimizeFuzzCase against the real divergence oracle (the campaign
 *  entry point: predicate = runFuzzCase(...).diverged). */
FuzzCase minimizeFuzzCase(const FuzzCase &c, bool event_skip,
                          std::uint64_t max_cycles);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_FUZZ_HH
