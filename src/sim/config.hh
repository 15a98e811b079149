/**
 * @file
 * Machine configuration presets reproducing Table 1 of the paper: a
 * 4-way and an 8-way dynamically scheduled superscalar, each with 1, 2
 * or 4 L1D ports that are either scalar or wide, with or without the
 * speculative dynamic vectorization mechanism.
 */

#ifndef SDV_SIM_CONFIG_HH
#define SDV_SIM_CONFIG_HH

#include <string>

#include "core/core.hh"
#include "sim/fault_injection.hh"

namespace sdv {

/** The three machine flavours compared throughout Section 4.3. */
enum class BusMode
{
    ScalarBus, ///< xpnoIM: conventional scalar buses
    WideBus,   ///< xpIM: wide (full-line) buses
    WideBusSdv ///< xpV: wide buses + dynamic vectorization
};

/** @return short label used in the paper's figures (e.g. "1pV"). */
std::string configLabel(unsigned ports, BusMode mode);

/**
 * Build the Table 1 machine.
 *
 * @param width 4 or 8 (issue width)
 * @param ports number of L1 data cache ports (1, 2 or 4)
 * @param mode bus flavour / vectorization
 */
CoreConfig makeConfig(unsigned width, unsigned ports, BusMode mode);

/** Convenience: the paper's 4-way machine with one wide bus + SDV. */
CoreConfig defaultSdvConfig();

/** Extra storage cost of the mechanism (Section 4.1: 56KB total). */
struct StorageCost
{
    std::uint64_t vectorRegisterFileBytes;
    std::uint64_t vrmtBytes;
    std::uint64_t tlBytes;

    std::uint64_t
    totalBytes() const
    {
        return vectorRegisterFileBytes + vrmtBytes + tlBytes;
    }
};

/** @return the storage accounting of Section 4.1 for @p cfg. */
StorageCost storageCost(const CoreConfig &cfg);

/** @return a one-line description of @p plan ("off" when disabled),
 *  used by logs and fuzz repro files. */
std::string describeFaultPlan(const FaultPlan &plan);

/**
 * Canonical identity hash of a full machine configuration: FNV-1a over
 * a field-by-field serialization of every CoreConfig member (widths,
 * FUs, ports, predictors, memory hierarchy, engine geometry and policy
 * flags, fault plan). Two configs hash equal iff they describe the
 * same machine — the hash never reads raw struct bytes, so padding
 * can't leak in. The sweep's snapshot store keys on the hash of each
 * workload's warm configuration (docs/sweep.md, "Snapshot store").
 */
std::uint64_t configIdentityHash(const CoreConfig &cfg);

} // namespace sdv

#endif // SDV_SIM_CONFIG_HH
