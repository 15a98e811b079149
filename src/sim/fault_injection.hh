/**
 * @file
 * Speculative-state fault injection (the adversarial robustness layer).
 *
 * A FaultPlan names the speculative structures that get bits flipped
 * and the per-event rates: speculative vector-register elements (at the
 * cycle their value lands in the register file), VRMT entries (at
 * install, corrupting the captured stride/base address), Table of
 * Loads entries and the shadow GMRBB. Checkpoint snapshot bytes are
 * flipped by applyImageFaults, which takes its rate as an argument. The
 * plan is part of the simulation configuration surface — sim/config.hh
 * re-exports it and EngineConfig embeds one — and this header is
 * deliberately dependency-free below common/ so the vector datapath and
 * the SDV engine can consume it without layering cycles.
 *
 * Every draw comes from one sdv::Random stream owned by the injector
 * and advanced only at discrete microarchitectural events (element
 * completions landing, VRMT installs). Those event sequences do not
 * depend on sweep worker scheduling, so a fault run is bit-reproducible
 * — the same determinism contract common/random.hh reserves the stream
 * for.
 *
 * The architectural state of this simulator is oracle-driven (committed
 * values always come from the in-order functional core), so an injected
 * fault can never corrupt architectural results; what the plan attacks
 * is the *detection machinery*: every consumed corrupted element must
 * be flagged by its validation (EngineStats fault counters, CoreStats
 * specFaultsDetected), never absorbed into the genuine
 * validationValueMismatches self-check that CI gates on.
 */

#ifndef SDV_SIM_FAULT_INJECTION_HH
#define SDV_SIM_FAULT_INJECTION_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"

namespace sdv {

/** Fault-injection configuration: sites, per-event rates, degradation
 *  policy. Rates are parts-per-million per event so integer configs
 *  stay exact and deterministic. */
struct FaultPlan
{
    bool enabled = false;    ///< master switch
    std::uint64_t seed = 0;  ///< injector stream seed (deriveSeed-based)

    /** Per landed vector-register element: probability (ppm) of
     *  flipping one uniformly chosen bit of the value. */
    std::uint32_t elemFlipPpm = 0;

    /** Per VRMT load-entry install: probability (ppm) of flipping one
     *  bit of the captured stride or base address. */
    std::uint32_t vrmtFlipPpm = 0;

    /** Per TL observation (train/promote at decode): probability (ppm)
     *  of flipping one low bit of the entry's stride or last address.
     *  A corrupted entry misleads *future* spawns only — any wrong
     *  spawn is caught by the expected-address check, so the site
     *  attacks confidence/stride training, not committed state. */
    std::uint32_t tlFlipPpm = 0;

    /** Per shadow-GMRBB update (backward-branch commit): probability
     *  (ppm) of flipping one low bit of the recorded region tag. The
     *  GMRBB is only a release-region label, so a corrupted tag can
     *  delay or misgroup vector-register sweeps but never corrupt an
     *  architectural value. */
    std::uint32_t gmrbbFlipPpm = 0;

    /** Graceful degradation: after this many consecutive detected
     *  faults on one chain (static PC), demote the chain to scalar
     *  execution instead of re-speculating. */
    std::uint32_t demoteThreshold = 4;

    /** Demoted chains re-enable after this many clean scalar commits
     *  of the demoted PC. */
    std::uint64_t reenableWindow = 64;

    /** @return true when any in-engine site can fire. */
    bool
    armed() const
    {
        return enabled && (elemFlipPpm != 0 || vrmtFlipPpm != 0 ||
                           tlFlipPpm != 0 || gmrbbFlipPpm != 0);
    }
};

/** One VRMT corruption decision. */
struct VrmtFault
{
    bool fire = false;        ///< corrupt this install
    bool strideField = false; ///< flip in stride (else base address)
    std::uint64_t mask = 0;   ///< single-bit XOR mask
};

/** One TL-entry corruption decision (same shape as VrmtFault: the TL
 *  entry's stride or last-address field takes a single-bit flip). */
struct TlFault
{
    bool fire = false;        ///< corrupt this observation's entry
    bool strideField = false; ///< flip in stride (else last address)
    std::uint64_t mask = 0;   ///< single-bit XOR mask
};

/**
 * The per-simulator injector: owns the fault stream and the applied-
 * fault counters. The SDV engine owns one instance and hands it to the
 * vector datapath; both query it at their event sites.
 */
class FaultInjector
{
  public:
    /** Arm (or disarm) from a plan; resets the stream and counters. */
    void
    configure(const FaultPlan &plan)
    {
        plan_ = plan;
        rng_ = Random(plan.seed);
        elemFlips_ = 0;
        vrmtFlips_ = 0;
        tlFlips_ = 0;
        gmrbbFlips_ = 0;
    }

    /** @return true when any in-engine site can fire (hot-path guard;
     *  a disabled injector costs one branch per call site). */
    bool armed() const { return plan_.armed(); }

    /** @return the active plan. */
    const FaultPlan &plan() const { return plan_; }

    /**
     * Draw at an element-completion landing.
     * @return a single-bit XOR mask to apply to the landing value, or
     *         0 (no fault this event).
     */
    std::uint64_t
    drawElemFlip()
    {
        if (plan_.elemFlipPpm == 0 ||
            rng_.below(1'000'000) >= plan_.elemFlipPpm)
            return 0;
        ++elemFlips_;
        return std::uint64_t(1) << rng_.below(64);
    }

    /** Draw at a VRMT load-entry install. */
    VrmtFault
    drawVrmtFault()
    {
        VrmtFault f;
        if (plan_.vrmtFlipPpm == 0 ||
            rng_.below(1'000'000) >= plan_.vrmtFlipPpm)
            return f;
        f.fire = true;
        f.strideField = rng_.below(2) == 0;
        // Low bits only: a flip near bit 63 turns the expected-address
        // arithmetic into a wrap-around no-op for strides, and the
        // point is a *plausibly wrong* entry, not an absurd one.
        f.mask = std::uint64_t(1) << rng_.below(20);
        ++vrmtFlips_;
        return f;
    }

    /** Draw at a TL observe (train/promote at decode). The ppm == 0
     *  early-out consumes no rng, so arming only the classic sites
     *  leaves their established fault streams untouched. */
    TlFault
    drawTlFault()
    {
        TlFault f;
        if (plan_.tlFlipPpm == 0 ||
            rng_.below(1'000'000) >= plan_.tlFlipPpm)
            return f;
        f.fire = true;
        f.strideField = rng_.below(2) == 0;
        // Low bits only, same rationale as drawVrmtFault: the attack is
        // a plausibly-wrong stride/address, not a wild pointer.
        f.mask = std::uint64_t(1) << rng_.below(20);
        ++tlFlips_;
        return f;
    }

    /**
     * Draw at a shadow-GMRBB update (backward-branch commit).
     * @return a low-bit XOR mask for the recorded region tag, or 0.
     */
    std::uint64_t
    drawGmrbbFlip()
    {
        if (plan_.gmrbbFlipPpm == 0 ||
            rng_.below(1'000'000) >= plan_.gmrbbFlipPpm)
            return 0;
        ++gmrbbFlips_;
        // Instruction addresses are word-ish aligned; flip above bit 1
        // so the corrupted tag is a *different plausible PC*, and keep
        // it low so it stays inside the code region.
        return std::uint64_t(1) << (2 + rng_.below(10));
    }

    /** @return element bit flips applied so far. */
    std::uint64_t elemFlips() const { return elemFlips_; }

    /** @return VRMT corruptions applied so far. */
    std::uint64_t vrmtFlips() const { return vrmtFlips_; }

    /** @return TL-entry corruptions applied so far. */
    std::uint64_t tlFlips() const { return tlFlips_; }

    /** @return shadow-GMRBB tag corruptions applied so far. */
    std::uint64_t gmrbbFlips() const { return gmrbbFlips_; }

    /** Zero the applied-fault counters (measurement rebase; the
     *  stream position is deliberately left alone). */
    void
    resetCounters()
    {
        elemFlips_ = 0;
        vrmtFlips_ = 0;
        tlFlips_ = 0;
        gmrbbFlips_ = 0;
    }

  private:
    FaultPlan plan_;
    Random rng_{0};
    std::uint64_t elemFlips_ = 0;
    std::uint64_t vrmtFlips_ = 0;
    std::uint64_t tlFlips_ = 0;
    std::uint64_t gmrbbFlips_ = 0;
};

/**
 * Flip one bit of each byte of @p bytes with probability
 * @p flip_ppm / 1e6 (the checkpoint-image fault site). @return the
 * number of bytes corrupted. Used by the checkpoint fuzz tests; the
 * loader's checksum guard must reject any image this touched.
 */
std::size_t applyImageFaults(std::vector<std::uint8_t> &bytes,
                             Random &rng, std::uint32_t flip_ppm);

} // namespace sdv

#endif // SDV_SIM_FAULT_INJECTION_HH
