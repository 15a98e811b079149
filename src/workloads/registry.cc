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

// --- registry -------------------------------------------------------

Program
Workload::instantiate(unsigned scale, Footprint fp,
                      std::uint64_t fuzz_seed) const
{
    if (scale == 0)
        fatal("workload '", name, "': invalid scale 0 (the scale is a "
              "dynamic-length multiplier and must be >= 1)");
    return build(scale, fp, fuzz_seed);
}

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> workloads = {
        {"go", false, "branchy board evaluation, irregular probes",
         buildGo},
        {"m88ksim", false, "ISA-simulator main loop over a trace",
         buildM88ksim},
        {"gcc", false, "compiler passes: pointer chasing + token scan",
         buildGcc},
        {"compress", false, "LZW hashing with random table probes",
         buildCompress},
        {"li", false, "lisp interpreter: strided cons-cell chasing",
         buildLi},
        {"ijpeg", false, "block image transforms, dense stride-1",
         buildIjpeg},
        {"perl", false, "bytecode interpreter with dispatch cascade",
         buildPerl},
        {"vortex", false, "OO database: record scans and bulk copies",
         buildVortex},
        {"swim", true, "shallow-water stencils, stride-1 doubles",
         buildSwim},
        {"applu", true, "banded solver, unrolled-by-2 (stride 2)",
         buildApplu},
        {"turb3d", true, "FFT-like passes at strides 1/2/4/8",
         buildTurb3d},
        {"fpppp", true, "huge FP basic blocks over a small workspace",
         buildFpppp},
    };
    return workloads;
}

const std::vector<Workload> &
attackWorkloads()
{
    static const std::vector<Workload> workloads = {
        {"tc_victim", false,
         "timing-channel victim: secret-length speculative chains",
         buildTcVictim},
        {"tc_attack", false,
         "timing-channel attacker: victim phases + cache probes",
         buildTcAttack},
    };
    return workloads;
}

std::vector<const Workload *>
selectWorkloads(const std::vector<Workload> &suite, bool quick)
{
    std::vector<const Workload *> picked;
    unsigned ints = 0, fps = 0;
    for (const Workload &w : suite)
        if (!quick || (w.isFp ? fps++ < 1 : ints++ < 2))
            picked.push_back(&w);
    return picked;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads())
        if (w.name == name)
            return &w;
    for (const Workload &w : attackWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

Program
buildWorkload(const std::string &name, unsigned scale, Footprint fp,
              std::uint64_t fuzz_seed)
{
    const Workload *w = findWorkload(name);
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
describeFootprint(const Workload &w, unsigned scale, Footprint fp)
{
    // Largest allocations first (ties keep allocation order); the long
    // tail is folded into "...".
    std::vector<DataAllocation> sorted =
        w.instantiate(scale, fp).allocations();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const DataAllocation &a, const DataAllocation &b) {
                         return a.bytes > b.bytes;
                     });

    std::size_t total = 0;
    for (const DataAllocation &a : sorted)
        total += a.bytes;
    std::string out = formatBytes(double(total)) + " (";
    const std::size_t shown = std::min<std::size_t>(sorted.size(), 3);
    for (std::size_t i = 0; i < shown; ++i) {
        if (i)
            out += ", ";
        out += sorted[i].name + " " + formatBytes(double(sorted[i].bytes));
    }
    if (sorted.size() > shown)
        out += ", ...";
    out += ")";
    return out;
}

} // namespace sdv
