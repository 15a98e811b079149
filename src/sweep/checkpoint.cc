#include "sweep/checkpoint.hh"

#include <cstring>
#include <type_traits>

#include "common/log.hh"
#include "common/serialize.hh"

namespace sdv {
namespace sweep {

namespace {

constexpr char magic[8] = {'S', 'D', 'V', 'C', 'K', 'P', 'T', '1'};
/** 2: the memory section is a delta over the program's load image.
 *  3: the geometry is one WarmGeometry, stored as its bytes. */
constexpr std::uint32_t version = 3;

/**
 * The geometry the warm state depends on. An image restores only into
 * a machine whose warm structures are shaped alike, which is rejected
 * up front with a readable error instead of failing mid-restore. Every
 * field is a 64-bit word, so the image header stores the struct's
 * bytes as they are.
 */
struct WarmGeometry
{
    std::uint64_t l1iSize, l1iAssoc, l1iLineBytes;
    std::uint64_t l1dSize, l1dAssoc, l1dLineBytes;
    std::uint64_t l2Size, l2Assoc, l2LineBytes;
    std::uint64_t gshareEntries, gshareHistoryBits;
    std::uint64_t btbSets, btbWays, rasDepth;
    std::uint64_t tlSets, tlWays, tlConfidence;

    bool operator==(const WarmGeometry &) const = default;
};

static_assert(std::has_unique_object_representations_v<WarmGeometry>,
              "the image header stores the geometry's bytes");

WarmGeometry
geometryOf(const CoreConfig &cfg)
{
    const MemHierarchyConfig &m = cfg.mem;
    const EngineConfig &e = cfg.engine;
    return {m.l1iSize, m.l1iAssoc, m.l1iLineBytes,
            m.l1dSize, m.l1dAssoc, m.l1dLineBytes,
            m.l2Size, m.l2Assoc, m.l2LineBytes,
            cfg.gshareEntries, cfg.gshareHistoryBits,
            cfg.btbSets, cfg.btbWays, cfg.rasDepth,
            e.tlSets, e.tlWays, e.tlConfidence};
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
    WarmGeometry geometry{};
    if (!des.bytes(&geometry, sizeof(geometry)) ||
        !(geometry == geometryOf(sim.core().config())))
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
    const WarmGeometry geometry = geometryOf(sim.core().config());
    ser.bytes(&geometry, sizeof(geometry));
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
    return geometryOf(captured) == geometryOf(target);
}

} // namespace sweep
} // namespace sdv
