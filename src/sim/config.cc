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

    CoreConfig cfg;
    cfg.fetchWidth = width;
    cfg.decodeWidth = width;
    cfg.issueWidth = width;
    cfg.commitWidth = width;
    cfg.maxStoresPerCycle = 2;
    cfg.fetchQueueEntries = 2 * width;
    cfg.dcachePorts = ports;
    cfg.widePorts = mode != BusMode::ScalarBus;

    if (width == 4) {
        cfg.robEntries = 128;
        cfg.lsqEntries = 32;
        cfg.fu.intAlu = 3;
        cfg.fu.intMulDiv = 2;
        cfg.fu.fpAdd = 2;
        cfg.fu.fpMulDiv = 1;
    } else {
        cfg.robEntries = 256;
        cfg.lsqEntries = 64;
        cfg.fu.intAlu = 6;
        cfg.fu.intMulDiv = 3;
        cfg.fu.fpAdd = 4;
        cfg.fu.fpMulDiv = 2;
    }

    // Branch predictor: gshare with 64K entries (Table 1).
    cfg.gshareEntries = 64 * 1024;
    cfg.gshareHistoryBits = 16;

    // Memory hierarchy latencies/geometry: Table 1 defaults already
    // encode the paper's caches.
    cfg.mem = MemHierarchyConfig{};

    // Vectorization engine.
    cfg.engine.enabled = mode == BusMode::WideBusSdv;
    cfg.engine.vlen = 4;
    cfg.engine.numVregs = 128;
    cfg.engine.tlSets = 512;
    cfg.engine.tlWays = 4;
    cfg.engine.tlConfidence = 2;
    cfg.engine.vrmtSets = 64;
    cfg.engine.vrmtWays = 4;
    cfg.engine.blockOnScalarOperand = true;
    // Vector FUs mirror the scalar counts (Table 1).
    cfg.engine.fu.intAlu = cfg.fu.intAlu;
    cfg.engine.fu.intMulDiv = cfg.fu.intMulDiv;
    cfg.engine.fu.fpAdd = cfg.fu.fpAdd;
    cfg.engine.fu.fpMulDiv = cfg.fu.fpMulDiv;
    cfg.engine.fu.loadPorts = 4; // "1 to 4 loads"

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
