/**
 * @file
 * Scalar functional unit pool (Table 1): per-class unit counts with
 * fully pipelined units (a unit accepts one operation per cycle).
 */

#ifndef SDV_CORE_FU_POOL_HH
#define SDV_CORE_FU_POOL_HH

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace sdv {

/** Scalar FU counts. */
struct ScalarFuConfig
{
    unsigned intAlu = 3;   ///< simple integer (latency 1)
    unsigned intMulDiv = 2; ///< integer mul (2) / div (12)
    unsigned fpAdd = 2;    ///< simple FP (2)
    unsigned fpMulDiv = 1; ///< FP mul (4) / div (14)
};

/** Per-cycle issue bandwidth tracker over the scalar FU classes. */
class FuPool
{
  public:
    explicit FuPool(const ScalarFuConfig &cfg) : cfg_(cfg) { beginCycle(); }

    /** Refresh per-cycle capacity. */
    void
    beginCycle()
    {
        intAlu_ = cfg_.intAlu;
        intMulDiv_ = cfg_.intMulDiv;
        fpAdd_ = cfg_.fpAdd;
        fpMulDiv_ = cfg_.fpMulDiv;
    }

    /**
     * Try to claim a unit for @p cls this cycle. Control operations and
     * memory address generation use simple-integer slots; memory-port
     * arbitration is handled separately by DCachePorts.
     */
    bool
    tryIssue(OpClass cls)
    {
        switch (cls) {
          case OpClass::IntAlu:
          case OpClass::Control:
          case OpClass::MemRead:
          case OpClass::MemWrite:
          case OpClass::None:
            return claim(intAlu_);
          case OpClass::IntMult:
          case OpClass::IntDiv:
            return claim(intMulDiv_);
          case OpClass::FpAdd:
            return claim(fpAdd_);
          case OpClass::FpMult:
          case OpClass::FpDiv:
            return claim(fpMulDiv_);
        }
        return false;
    }

  private:
    static bool
    claim(unsigned &slots)
    {
        if (slots == 0)
            return false;
        --slots;
        return true;
    }

    ScalarFuConfig cfg_;
    unsigned intAlu_ = 0;
    unsigned intMulDiv_ = 0;
    unsigned fpAdd_ = 0;
    unsigned fpMulDiv_ = 0;
};

} // namespace sdv

#endif // SDV_CORE_FU_POOL_HH
