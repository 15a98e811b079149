#include "sim/config.hh"

#include "common/log.hh"
#include "common/serialize.hh"

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

CoreConfig
defaultSdvConfig()
{
    return makeConfig(4, 1, BusMode::WideBusSdv);
}

std::string
describeFaultPlan(const FaultPlan &plan)
{
    if (!plan.enabled)
        return "off";
    std::string s = "seed=" + std::to_string(plan.seed);
    s += " elem_ppm=" + std::to_string(plan.elemFlipPpm);
    s += " vrmt_ppm=" + std::to_string(plan.vrmtFlipPpm);
    s += " tl_ppm=" + std::to_string(plan.tlFlipPpm);
    s += " gmrbb_ppm=" + std::to_string(plan.gmrbbFlipPpm);
    s += " demote_k=" + std::to_string(plan.demoteThreshold);
    s += " reenable=" + std::to_string(plan.reenableWindow);
    return s;
}

std::uint64_t
configIdentityHash(const CoreConfig &cfg)
{
    // Field-by-field canonical serialization: raw struct bytes would
    // hash padding (indeterminate), so every member is written
    // explicitly. Any new CoreConfig field that changes simulated
    // behavior must be added here, or distinct machines could share a
    // snapshot-cache key.
    Serializer ser;
    ser.u32(cfg.fetchWidth);
    ser.u32(cfg.decodeWidth);
    ser.u32(cfg.issueWidth);
    ser.u32(cfg.commitWidth);
    ser.u32(cfg.maxStoresPerCycle);
    ser.u32(cfg.robEntries);
    ser.u32(cfg.lsqEntries);
    ser.u32(cfg.fetchQueueEntries);
    ser.u32(cfg.fu.intAlu);
    ser.u32(cfg.fu.intMulDiv);
    ser.u32(cfg.fu.fpAdd);
    ser.u32(cfg.fu.fpMulDiv);
    ser.u32(cfg.dcachePorts);
    ser.b(cfg.widePorts);
    ser.u32(cfg.gshareEntries);
    ser.u32(cfg.gshareHistoryBits);
    ser.u32(cfg.btbSets);
    ser.u32(cfg.btbWays);
    ser.u32(cfg.rasDepth);
    ser.u32(cfg.fig10WindowInsts);
    ser.b(cfg.eventSkip);
    ser.b(cfg.traceExec);

    const MemHierarchyConfig &m = cfg.mem;
    ser.u64(m.l1iSize);
    ser.u32(m.l1iAssoc);
    ser.u32(m.l1iLineBytes);
    ser.u64(m.l1iHitCycles);
    ser.u64(m.l1dSize);
    ser.u32(m.l1dAssoc);
    ser.u32(m.l1dLineBytes);
    ser.u64(m.l1dHitCycles);
    ser.u64(m.l1dMissCycles);
    ser.u64(m.l2Size);
    ser.u32(m.l2Assoc);
    ser.u32(m.l2LineBytes);
    ser.u64(m.l2MissCycles);
    ser.u32(m.mshrEntries);

    const EngineConfig &e = cfg.engine;
    ser.b(e.enabled);
    ser.u32(e.vlen);
    ser.u32(e.numVregs);
    ser.u32(e.tlSets);
    ser.u32(e.tlWays);
    ser.u8(e.tlConfidence);
    ser.u32(e.vrmtSets);
    ser.u32(e.vrmtWays);
    ser.b(e.blockOnScalarOperand);
    ser.b(e.eagerChainLoads);
    ser.u32(e.fu.intAlu);
    ser.u32(e.fu.intMulDiv);
    ser.u32(e.fu.fpAdd);
    ser.u32(e.fu.fpMulDiv);
    ser.u32(e.fu.loadPorts);
    ser.b(e.fault.enabled);
    ser.u64(e.fault.seed);
    ser.u32(e.fault.elemFlipPpm);
    ser.u32(e.fault.vrmtFlipPpm);
    ser.u32(e.fault.tlFlipPpm);
    ser.u32(e.fault.gmrbbFlipPpm);
    ser.u32(e.fault.demoteThreshold);
    ser.u64(e.fault.reenableWindow);

    const std::vector<std::uint8_t> buf = ser.finish();
    return fnv1a(buf.data(), buf.size());
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
