/**
 * @file
 * Gshare conditional branch direction predictor (64K-entry, 2-bit
 * counters per Table 1 of the paper).
 */

#ifndef SDV_BRANCH_GSHARE_HH
#define SDV_BRANCH_GSHARE_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace sdv {

/** Global-history XOR-indexed pattern history table. */
class Gshare
{
  public:
    /**
     * @param table_entries number of 2-bit counters (power of two)
     * @param history_bits length of the global history register
     */
    explicit Gshare(unsigned table_entries = 64 * 1024,
                    unsigned history_bits = 16);

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Train with the resolved outcome and shift the global history.
     * The sdv front end trains at fetch with the oracle outcome, which
     * models the common "fix up history on misprediction" hardware.
     */
    void update(Addr pc, bool taken);

    /** predict() + update() fused: one table index computation instead
     *  of two (the fetch hot path predicts and trains back to back).
     *  @return the prediction made before training. */
    bool predictAndUpdate(Addr pc, bool taken);

    /** @return the current global history register value. */
    std::uint64_t history() const { return history_; }

    /** @return table size in entries. */
    unsigned numEntries() const { return unsigned(table_.size()); }

    /** Serialize every counter plus the global history register. */
    void
    saveState(Serializer &ser) const
    {
        ser.u32(unsigned(table_.size()));
        ser.u64(history_);
        for (const SatCounter &c : table_)
            ser.u8(c.count());
    }

    /** Restore predictor state; @retval false on geometry mismatch. */
    bool
    loadState(Deserializer &des)
    {
        if (des.u32() != table_.size()) {
            des.fail();
            return false;
        }
        history_ = des.u64() & historyMask_;
        for (SatCounter &c : table_)
            c.set(des.u8());
        return des.ok();
    }

  private:
    unsigned index(Addr pc) const;

    std::vector<SatCounter> table_;
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
    unsigned indexMask_;
};

} // namespace sdv

#endif // SDV_BRANCH_GSHARE_HH
