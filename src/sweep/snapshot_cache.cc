#include "sweep/snapshot_cache.hh"

#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/config.hh"
#include "sweep/checkpoint.hh"

namespace sdv {
namespace sweep {

namespace {

constexpr char magic[8] = {'S', 'D', 'V', 'S', 'N', 'A', 'P', '1'};
/** 3: checksum64 trailer and delta memory images. */
constexpr std::uint32_t version = 3;

enum class Load { Ok, Missing, Corrupt, Stale };

Load
loadSnapshotSet(const std::string &path, std::uint64_t programHash,
                SampleSet &out)
{
    std::vector<std::uint8_t> bytes;
    const Checkpoint::LoadStatus status = Checkpoint::load(path, bytes);
    if (status == Checkpoint::LoadStatus::Missing)
        return Load::Missing;
    // Magic and version come before the trailer: a container in
    // another build's format (its checksum included) is stale, not
    // damaged. load() verified the trailer of an intact one; the
    // payload is read in front of it.
    const bool intact = status == Checkpoint::LoadStatus::Ok;
    Deserializer des(bytes.data(), bytes.size() - (intact ? 8 : 0));
    char m[sizeof(magic)];
    if (!des.bytes(m, sizeof(m)) ||
        std::memcmp(m, magic, sizeof(magic)) != 0)
        return Load::Corrupt;
    const std::uint32_t v = des.u32();
    if (!des.ok())
        return Load::Corrupt;
    if (v != version)
        return Load::Stale;
    if (!intact)
        return Load::Corrupt;
    const std::uint64_t fingerprint = des.u64();
    if (des.u64() != programHash || fingerprint != binaryFingerprint())
        return Load::Stale;
    out.totalInsts = des.u64();
    out.periodInsts = des.u64();
    const std::uint64_t n = des.u64();
    if (!des.ok() || n > (1u << 20))
        return Load::Corrupt;
    out.samples.assign(std::size_t(n), SampleCheckpoint{});
    for (SampleCheckpoint &sc : out.samples) {
        sc.startInst = des.u64();
        sc.regionInsts = des.u64();
        sc.measureInsts = des.u64();
        const std::uint64_t len = des.u64();
        if (!des.ok() || len > bytes.size())
            return Load::Corrupt;
        sc.bytes.resize(std::size_t(len));
        if (!des.bytes(sc.bytes.data(), sc.bytes.size()))
            return Load::Corrupt;
    }
    return des.atEnd() ? Load::Ok : Load::Corrupt;
}

} // namespace

std::string
snapshotKey(const SweepPlan &plan, const ExecOptions &opt,
            const std::string &workload)
{
    char buf[160];
    std::string key = workload;
    key += ".s" + std::to_string(plan.scale);
    key += ".";
    key += footprintName(plan.footprint);
    key += ".w" + std::to_string(opt.warmupInsts);
    std::snprintf(buf, sizeof(buf), ".S%u.m%llu.p%llu",
                  opt.sample.samples,
                  static_cast<unsigned long long>(opt.sample.measureInsts),
                  static_cast<unsigned long long>(opt.sample.periodInsts));
    key += buf;
    // The cycle budget shapes capture *failure* (a boundary unreachable
    // within the budget is a stored negative), so a bigger budget must
    // not reuse a smaller budget's verdict. The warm-config hash covers
    // the machine the capture pass ran, chaining mode and dispatch
    // included.
    std::snprintf(buf, sizeof(buf), ".mc%llu.c%016llx",
                  static_cast<unsigned long long>(opt.maxCycles),
                  static_cast<unsigned long long>(configIdentityHash(
                      warmConfig(plan, opt, workload))));
    key += buf;
    return key;
}

std::uint64_t
binaryFingerprint()
{
    static const std::uint64_t fp = [] {
        struct stat st{};
        if (::stat("/proc/self/exe", &st) != 0)
            return std::uint64_t(0);
        Serializer ser;
        ser.u64(std::uint64_t(st.st_size));
        ser.i64(st.st_mtime);
        ser.u64(std::uint64_t(st.st_ino));
        const std::vector<std::uint8_t> buf = ser.finish();
        return fnv1a(buf.data(), buf.size());
    }();
    return fp;
}

bool
saveSnapshotSet(const std::string &path, const SampleSet &set,
                std::uint64_t programHash, std::uint64_t fingerprint)
{
    Serializer ser;
    ser.bytes(magic, sizeof(magic));
    ser.u32(version);
    ser.u64(fingerprint);
    ser.u64(programHash);
    ser.u64(set.totalInsts);
    ser.u64(set.periodInsts);
    ser.u64(set.samples.size());
    for (const SampleCheckpoint &sc : set.samples) {
        ser.u64(sc.startInst);
        ser.u64(sc.regionInsts);
        ser.u64(sc.measureInsts);
        ser.u64(sc.bytes.size());
        ser.bytes(sc.bytes.data(), sc.bytes.size());
    }
    // The container rides the same torn-write guarantees as the images
    // it holds: Serializer seals it with the checksum64 trailer that
    // Checkpoint::load verifies, and save() publishes by rename.
    return Checkpoint::save(path, ser.finish());
}

SampleSet
loadOrCapture(const std::string &dir, const std::string &key,
              std::uint64_t programHash,
              const std::function<SampleSet()> &capture)
{
    if (dir.empty())
        return capture();
    const std::string path = dir + "/" + key + ".snap";
    SampleSet set;
    switch (loadSnapshotSet(path, programHash, set)) {
    case Load::Ok:
        return set;
    case Load::Missing:
        break;
    case Load::Corrupt:
        // A missing file is the normal cold path; a damaged one means
        // something poisoned the directory and deserves visibility.
        warn_once("snapshot set ", path,
                  " is corrupt (torn or truncated write?); recapturing");
        break;
    case Load::Stale:
        warn_once("snapshot set ", path,
                  " was captured by another build; recapturing");
        break;
    }
    set = capture();
    ::mkdir(dir.c_str(), 0777); // first use of the directory
    if (!saveSnapshotSet(path, set, programHash, binaryFingerprint()))
        warn("could not write snapshot set ", path);
    return set;
}

} // namespace sweep
} // namespace sdv
