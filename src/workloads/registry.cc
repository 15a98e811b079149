#include "workloads/workload.hh"

#include <algorithm>
#include <cstdio>

#include "common/log.hh"

namespace sdv {

// --- Footprint ------------------------------------------------------

const char *
footprintName(Footprint fp)
{
    switch (fp) {
      case Footprint::Base:
        return "base";
      case Footprint::L2:
        return "l2";
      case Footprint::Mem:
        return "mem";
    }
    return "?";
}

std::optional<Footprint>
findFootprint(std::string_view name)
{
    for (Footprint fp : {Footprint::Base, Footprint::L2, Footprint::Mem})
        if (name == footprintName(fp))
            return fp;
    return std::nullopt;
}

Footprint
parseFootprint(const std::string &name)
{
    if (const std::optional<Footprint> fp = findFootprint(name))
        return *fp;
    fatal("unknown footprint mode '", name, "' (base, l2 or mem)");
}

// --- FootprintPlan --------------------------------------------------

std::size_t
FootprintPlan::words(const std::string &name) const
{
    for (const auto &e : extents)
        if (e.first == name)
            return e.second;
    fatal("footprint plan declares no extent '", name, "'");
}

std::int32_t
FootprintPlan::wordTrip(const std::string &name) const
{
    const std::size_t w = words(name);
    sdv_assert(w <= 0x7fffffffu, "extent too large for a trip count");
    return std::int32_t(w);
}

std::int32_t
FootprintPlan::count(const std::string &name) const
{
    for (const auto &t : trips)
        if (t.first == name) {
            sdv_assert(t.second >= 1 && t.second <= 0x7fffffff,
                       "trip count out of range");
            return std::int32_t(t.second);
        }
    fatal("footprint plan declares no trip count '", name, "'");
}

std::int32_t
FootprintPlan::indexMask(const std::string &name) const
{
    const std::size_t w = words(name);
    sdv_assert(w >= 2 && (w & (w - 1)) == 0,
               "extent '", name, "' must be a power of two for masking");
    sdv_assert(w - 1 <= 0x7fffffffu, "mask exceeds immediate range");
    return std::int32_t(w - 1);
}

std::int32_t
FootprintPlan::byteMask(const std::string &name) const
{
    const std::int32_t m = indexMask(name);
    sdv_assert(m <= 0x0fffffff, "byte mask exceeds immediate range");
    return m * 8 + 7;
}

std::size_t
FootprintPlan::totalBytes() const
{
    std::size_t words = 0;
    for (const auto &e : extents)
        words += e.second;
    return words * 8;
}

// --- registry -------------------------------------------------------

Program
WorkloadSpec::instantiate(unsigned scale, Footprint fp,
                          std::uint64_t fuzz_seed) const
{
    if (scale == 0)
        fatal("workload '", name, "': invalid scale 0 (the scale is a "
              "dynamic-length multiplier and must be >= 1)");
    FootprintPlan p = plan(scale, fp);
    p.fuzzSeed = fuzz_seed;
    return build(p);
}

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> workloads = {
        {"go", false, "branchy board evaluation, irregular probes",
         planGo, buildGo},
        {"m88ksim", false, "ISA-simulator main loop over a trace",
         planM88ksim, buildM88ksim},
        {"gcc", false, "compiler passes: pointer chasing + token scan",
         planGcc, buildGcc},
        {"compress", false, "LZW hashing with random table probes",
         planCompress, buildCompress},
        {"li", false, "lisp interpreter: strided cons-cell chasing",
         planLi, buildLi},
        {"ijpeg", false, "block image transforms, dense stride-1",
         planIjpeg, buildIjpeg},
        {"perl", false, "bytecode interpreter with dispatch cascade",
         planPerl, buildPerl},
        {"vortex", false, "OO database: record scans and bulk copies",
         planVortex, buildVortex},
        {"swim", true, "shallow-water stencils, stride-1 doubles",
         planSwim, buildSwim},
        {"applu", true, "banded solver, unrolled-by-2 (stride 2)",
         planApplu, buildApplu},
        {"turb3d", true, "FFT-like passes at strides 1/2/4/8",
         planTurb3d, buildTurb3d},
        {"fpppp", true, "huge FP basic blocks over a small workspace",
         planFpppp, buildFpppp},
    };
    return workloads;
}

const std::vector<WorkloadSpec> &
attackWorkloads()
{
    static const std::vector<WorkloadSpec> workloads = {
        {"tc_victim", false,
         "timing-channel victim: secret-length speculative chains",
         planTcVictim, buildTcVictim},
        {"tc_attack", false,
         "timing-channel attacker: victim phases + cache probes",
         planTcAttack, buildTcAttack},
    };
    return workloads;
}

std::vector<const WorkloadSpec *>
selectWorkloads(const std::vector<WorkloadSpec> &suite, bool quick)
{
    std::vector<const WorkloadSpec *> picked;
    unsigned ints = 0, fps = 0;
    for (const WorkloadSpec &w : suite)
        if (!quick || (w.isFp ? fps++ < 1 : ints++ < 2))
            picked.push_back(&w);
    return picked;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : allWorkloads())
        if (w.name == name)
            return &w;
    for (const WorkloadSpec &w : attackWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

Program
buildWorkload(const std::string &name, unsigned scale, Footprint fp,
              std::uint64_t fuzz_seed)
{
    const WorkloadSpec *w = findWorkload(name);
    if (!w)
        fatal("unknown workload '", name, "'");
    return w->instantiate(scale, fp, fuzz_seed);
}

namespace {

std::string
formatBytes(double bytes)
{
    char buf[32];
    if (bytes >= 1024.0 * 1024.0)
        std::snprintf(buf, sizeof(buf), "%.1f MiB",
                      bytes / (1024.0 * 1024.0));
    else if (bytes >= 1024.0)
        std::snprintf(buf, sizeof(buf), "%.1f KiB", bytes / 1024.0);
    else
        std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
    return buf;
}

} // namespace

std::string
describeFootprint(const WorkloadSpec &w, unsigned scale, Footprint fp)
{
    if (scale == 0)
        fatal("workload '", w.name, "': invalid scale 0");
    const FootprintPlan plan = w.plan(scale, fp);

    // Largest extents first; the long tail is folded into "...".
    std::vector<std::pair<std::string, std::size_t>> sorted =
        plan.extents;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });

    std::string out = formatBytes(double(plan.totalBytes())) + " (";
    const std::size_t shown = std::min<std::size_t>(sorted.size(), 3);
    for (std::size_t i = 0; i < shown; ++i) {
        if (i)
            out += ", ";
        out += sorted[i].first + " " +
               formatBytes(double(sorted[i].second) * 8.0);
    }
    if (sorted.size() > shown)
        out += ", ...";
    out += ")";
    return out;
}

std::vector<std::string>
intWorkloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &w : allWorkloads())
        if (!w.isFp)
            names.push_back(w.name);
    return names;
}

std::vector<std::string>
fpWorkloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &w : allWorkloads())
        if (w.isFp)
            names.push_back(w.name);
    return names;
}

} // namespace sdv
