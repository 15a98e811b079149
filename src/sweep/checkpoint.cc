#include "sweep/checkpoint.hh"

#include <cstring>

#include "common/log.hh"
#include "common/serialize.hh"

namespace sdv {
namespace sweep {

namespace {

constexpr char magic[8] = {'S', 'D', 'V', 'C', 'K', 'P', 'T', '1'};
/** 2: the memory section is a delta over the program's load image. */
constexpr std::uint32_t version = 2;

/** Serialize the geometry the warm state depends on. Restoring into a
 *  machine whose warm structures are shaped differently is rejected
 *  up front with a readable error instead of failing mid-restore. */
void
writeGeometry(Serializer &ser, const CoreConfig &cfg)
{
    const MemHierarchyConfig &m = cfg.mem;
    ser.u64(m.l1iSize);
    ser.u32(m.l1iAssoc);
    ser.u32(m.l1iLineBytes);
    ser.u64(m.l1dSize);
    ser.u32(m.l1dAssoc);
    ser.u32(m.l1dLineBytes);
    ser.u64(m.l2Size);
    ser.u32(m.l2Assoc);
    ser.u32(m.l2LineBytes);
    ser.u32(cfg.gshareEntries);
    ser.u32(cfg.gshareHistoryBits);
    ser.u32(cfg.btbSets);
    ser.u32(cfg.btbWays);
    ser.u32(cfg.rasDepth);
    ser.u32(cfg.engine.tlSets);
    ser.u32(cfg.engine.tlWays);
    ser.u8(cfg.engine.tlConfidence);
}

bool
geometryMatches(Deserializer &des, const CoreConfig &cfg)
{
    const MemHierarchyConfig &m = cfg.mem;
    bool ok = true;
    ok &= des.u64() == m.l1iSize;
    ok &= des.u32() == m.l1iAssoc;
    ok &= des.u32() == m.l1iLineBytes;
    ok &= des.u64() == m.l1dSize;
    ok &= des.u32() == m.l1dAssoc;
    ok &= des.u32() == m.l1dLineBytes;
    ok &= des.u64() == m.l2Size;
    ok &= des.u32() == m.l2Assoc;
    ok &= des.u32() == m.l2LineBytes;
    ok &= des.u32() == cfg.gshareEntries;
    ok &= des.u32() == cfg.gshareHistoryBits;
    ok &= des.u32() == cfg.btbSets;
    ok &= des.u32() == cfg.btbWays;
    ok &= des.u32() == cfg.rasDepth;
    ok &= des.u32() == cfg.engine.tlSets;
    ok &= des.u32() == cfg.engine.tlWays;
    ok &= des.u8() == cfg.engine.tlConfidence;
    return ok && des.ok();
}

bool
setError(std::string *error, const char *msg)
{
    if (error)
        *error = msg;
    return false;
}

/** Header walk: checksum, magic, version, geometry and program
 *  identity against @p sim. On success @p des is positioned at the
 *  warm-state payload. */
bool
checkHeader(Deserializer &des, Simulator &sim, std::string *error)
{
    if (!des.verifyChecksum())
        return setError(error,
                        "checkpoint image truncated or corrupted "
                        "(checksum mismatch)");

    char m[sizeof(magic)];
    if (!des.bytes(m, sizeof(m)) ||
        std::memcmp(m, magic, sizeof(magic)) != 0)
        return setError(error, "not a checkpoint image (bad magic)");
    if (des.u32() != version)
        return setError(error, "unsupported checkpoint version");
    const std::uint64_t prog = des.u64();
    if (!geometryMatches(des, sim.core().config()))
        return setError(error,
                        "checkpoint geometry does not match the target "
                        "configuration (caches/predictors/TL shape)");
    if (prog != sim.program().identityHash())
        return setError(error,
                        "checkpoint was captured from a different "
                        "program");
    return true;
}

} // namespace

std::vector<std::uint8_t>
Checkpoint::capture(Simulator &sim)
{
    Serializer ser;
    ser.bytes(magic, sizeof(magic));
    ser.u32(version);
    ser.u64(sim.program().identityHash());
    writeGeometry(ser, sim.core().config());
    sim.core().saveWarmState(ser);
    return ser.finish();
}

bool
Checkpoint::restore(Simulator &sim,
                    const std::vector<std::uint8_t> &bytes,
                    std::string *error)
{
    Deserializer des(bytes);
    if (!checkHeader(des, sim, error))
        return false;
    if (!sim.core().loadWarmState(des) || !des.atEnd())
        return setError(error, "checkpoint payload is inconsistent");
    return true;
}

bool
Checkpoint::validate(Simulator &sim,
                     const std::vector<std::uint8_t> &bytes)
{
    Deserializer des(bytes);
    return checkHeader(des, sim, nullptr);
}

bool
Checkpoint::compatible(const CoreConfig &captured,
                       const CoreConfig &target)
{
    Serializer ser;
    writeGeometry(ser, captured);
    const std::vector<std::uint8_t> geometry = ser.finish();
    Deserializer des(geometry);
    return geometryMatches(des, target);
}

} // namespace sweep
} // namespace sdv
