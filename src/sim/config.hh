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

} // namespace sdv

#endif // SDV_SIM_CONFIG_HH
