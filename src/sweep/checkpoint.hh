/**
 * @file
 * Checkpoint / fast-forward for configuration sweeps: capture a
 * simulator at a warmed measurement boundary (Simulator::advanceTo)
 * and fork any number of configurations from the snapshot instead of
 * re-simulating the run up to it per configuration.
 *
 * A checkpoint carries the architectural state (registers, PC,
 * execution progress, and the memory as a delta: the pages that differ
 * from the program's load image) and the configuration-independent
 * warm micro-architectural state: cache tags/LRU, branch predictors
 * (gshare, BTB, RAS) and the engine's Table of Loads stride tables.
 * Transient vector state is released at the boundary (context-switch
 * semantics, exactly as advanceTo() does on the straight-through
 * path), which is what makes restore-then-run bit-identical to
 * advance-then-continue — see tests/test_sweep.cc.
 *
 * The byte image is integrity-checked (magic, version, checksum64
 * trailer) and bound to the program identity and the component
 * geometry, so truncated, corrupted or mismatched snapshots are
 * rejected before any simulator state is touched.
 */

#ifndef SDV_SWEEP_CHECKPOINT_HH
#define SDV_SWEEP_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace sdv {
namespace sweep {

/** Checkpoint capture / restore entry points. */
class Checkpoint
{
  public:
    /**
     * Serialize @p sim's warm state. The simulator must sit at a
     * measurement boundary (right after Simulator::advanceTo); capture
     * does not modify it.
     */
    static std::vector<std::uint8_t> capture(Simulator &sim);

    /**
     * Restore @p bytes into a freshly-constructed simulator (asserted:
     * the image's memory pages are written over the load image its
     * constructor wrote). The target may use a different CoreConfig as
     * long as the warm components' geometry matches (cache shapes,
     * predictor sizes, TL shape) — the Table 1 grid varies
     * width/ports/bus/engine, all of which are compatible.
     *
     * @retval false (and sets @p error) on a corrupted or truncated
     * image, a program mismatch, or a geometry mismatch; the simulator
     * is left unusable and must be discarded in that case
     */
    static bool restore(Simulator &sim,
                        const std::vector<std::uint8_t> &bytes,
                        std::string *error = nullptr);

    /**
     * Header-only validation: is @p bytes an intact image, captured
     * from @p sim's program, restorable into @p sim's configuration?
     * Touches no simulator state.
     */
    static bool validate(Simulator &sim,
                         const std::vector<std::uint8_t> &bytes);

    /**
     * Can an image captured under @p captured restore into a machine
     * configured as @p target? True when the warm structures have the
     * same geometry — the check validate() and restore() make against
     * the image header, decided from the two configurations alone.
     * The sweep executor forks a job from its workload's snapshots
     * when this holds for the warm and the job configuration.
     */
    static bool compatible(const CoreConfig &captured,
                           const CoreConfig &target);
};

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_CHECKPOINT_HH
