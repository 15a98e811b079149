#include "sim/config.hh"

#include "common/log.hh"

namespace sdv {

std::string
configLabel(unsigned ports, BusMode mode)
{
    std::string label = std::to_string(ports) + "p";
    switch (mode) {
      case BusMode::ScalarBus:
        label += "noIM";
        break;
      case BusMode::WideBus:
        label += "IM";
        break;
      case BusMode::WideBusSdv:
        label += "V";
        break;
    }
    return label;
}

CoreConfig
makeConfig(unsigned width, unsigned ports, BusMode mode)
{
    sdv_assert(width == 4 || width == 8, "width must be 4 or 8");
    sdv_assert(ports == 1 || ports == 2 || ports == 4,
               "ports must be 1, 2 or 4");

    // The config structs' defaults are Table 1's 4-way machine; set
    // only what the width, the port count and the bus mode change.
    CoreConfig cfg;
    cfg.fetchWidth = width;
    cfg.decodeWidth = width;
    cfg.issueWidth = width;
    cfg.commitWidth = width;
    cfg.fetchQueueEntries = 2 * width;
    cfg.dcachePorts = ports;
    cfg.widePorts = mode != BusMode::ScalarBus;
    cfg.engine.enabled = mode == BusMode::WideBusSdv;

    if (width == 8) {
        cfg.robEntries = 256;
        cfg.lsqEntries = 64;
        cfg.fu.intAlu = 6;
        cfg.fu.intMulDiv = 3;
        cfg.fu.fpAdd = 4;
        cfg.fu.fpMulDiv = 2;
    }
    // Vector FUs mirror the scalar counts (Table 1).
    cfg.engine.fu.intAlu = cfg.fu.intAlu;
    cfg.engine.fu.intMulDiv = cfg.fu.intMulDiv;
    cfg.engine.fu.fpAdd = cfg.fu.fpAdd;
    cfg.engine.fu.fpMulDiv = cfg.fu.fpMulDiv;
    return cfg;
}

StorageCost
storageCost(const CoreConfig &cfg)
{
    StorageCost cost;
    cost.vectorRegisterFileBytes =
        std::uint64_t(cfg.engine.numVregs) * cfg.engine.vlen * 8;
    cost.vrmtBytes =
        std::uint64_t(cfg.engine.vrmtSets) * cfg.engine.vrmtWays * 18;
    cost.tlBytes = std::uint64_t(cfg.engine.tlSets) * cfg.engine.tlWays * 24;
    return cost;
}

} // namespace sdv
