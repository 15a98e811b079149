#include "obs/trace.hh"

#include <cinttypes>

#include "common/log.hh"
#include "common/text_file.hh"

namespace sdv {
namespace obs {

namespace {

struct KindInfo
{
    const char *name;
    unsigned cat;
};

const KindInfo kKinds[] = {
    {"tl_promote", CatSdv},      {"chain_spawn", CatSdv},
    {"chain_extend", CatSdv},    {"chain_kill", CatSdv},
    {"val_issue", CatSdv},       {"val_hit", CatSdv},
    {"val_miss", CatSdv},        {"vreg_alloc", CatSdv},
    {"vreg_release", CatSdv},    {"quiesce", CatSdv},
    {"squash", CatCore},         {"icache_refill", CatMem},
    {"mshr_alloc", CatMem},      {"mshr_retry", CatMem},
};

static_assert(sizeof(kKinds) / sizeof(kKinds[0]) ==
                  std::size_t(EventKind::NumKinds),
              "kind table out of sync with EventKind");

const char *kCauseNames[] = {"cond1", "cond2", "killed", "bulk", "squash"};
const char *kMissNames[] = {"mismatch", "fallback", "addr_misspec",
                            "operand_misspec"};

/** Emit the per-kind args object for one event. */
void
appendArgs(std::string &out, const TraceEvent &ev)
{
    const auto pc = static_cast<unsigned long long>(ev.pc);
    const auto a0 = static_cast<unsigned long long>(ev.arg0);
    const auto a1 = static_cast<unsigned long long>(ev.arg1);
    switch (ev.kind) {
      case EventKind::TlPromote:
        appendf(out, "{\"pc\":\"0x%llx\",\"stride\":%lld}", pc,
                static_cast<long long>(ev.arg0));
        break;
      case EventKind::ChainSpawn:
      case EventKind::ChainExtend:
        appendf(out, "{\"pc\":\"0x%llx\",\"vreg\":%llu,\"%s\":%llu}", pc, a0,
                ev.kind == EventKind::ChainSpawn ? "arith" : "eager", a1);
        break;
      case EventKind::ChainKill:
        appendf(out, "{\"pc\":\"0x%llx\",\"vreg\":%llu}", pc, a0);
        break;
      case EventKind::ValIssue:
      case EventKind::ValHit:
        appendf(out, "{\"pc\":\"0x%llx\",\"vreg\":%llu,\"elem\":%llu}", pc, a0,
                a1);
        break;
      case EventKind::ValMiss:
        appendf(out, "{\"pc\":\"0x%llx\",\"vreg\":%llu,\"reason\":\"%s\"}", pc,
                a0, ev.arg1 < 4 ? kMissNames[ev.arg1] : "unknown");
        break;
      case EventKind::VregAlloc:
        appendf(out, "{\"mrbb\":\"0x%llx\",\"reg\":%llu,\"gen\":%llu}", pc,
                a0 & 0xffffu, (a0 >> 16) & 0xffffu);
        break;
      case EventKind::VregRelease: {
        const unsigned cause = unsigned((ev.arg0 >> 32) & 0xffu);
        appendf(out,
                "{\"reg\":%llu,\"gen\":%llu,\"cause\":\"%s\",\"age\":%llu}",
                a0 & 0xffffu, (a0 >> 16) & 0xffffu,
                cause < 5 ? kCauseNames[cause] : "unknown", a1);
        break;
      }
      case EventKind::Quiesce:
        appendf(out, "{\"live_vregs\":%llu,\"transient_elems\":%llu}", a0, a1);
        break;
      case EventKind::Squash:
        appendf(out, "{\"squashed_insts\":%llu}", a0);
        break;
      case EventKind::IcacheRefill:
        appendf(out, "{\"pc\":\"0x%llx\",\"ready\":%llu}", pc, a0);
        break;
      case EventKind::MshrAlloc:
        appendf(out, "{\"line\":\"0x%llx\",\"complete\":%llu}", pc, a0);
        break;
      case EventKind::MshrRetry:
        appendf(out, "{\"line\":\"0x%llx\"}", pc);
        break;
      default:
        out += "{}";
        break;
    }
}

} // namespace

const char *
eventName(EventKind kind)
{
    sdv_assert(kind < EventKind::NumKinds, "bad event kind");
    return kKinds[unsigned(kind)].name;
}

unsigned
eventCategory(EventKind kind)
{
    sdv_assert(kind < EventKind::NumKinds, "bad event kind");
    return kKinds[unsigned(kind)].cat;
}

const char *
categoryName(unsigned cat)
{
    switch (cat) {
      case CatSdv: return "sdv";
      case CatMem: return "mem";
      case CatCore: return "core";
      default: return "?";
    }
}

bool
parseCategoryMask(const std::string &spec, unsigned &mask)
{
    mask = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        if (tok == "sdv")
            mask |= CatSdv;
        else if (tok == "mem")
            mask |= CatMem;
        else if (tok == "core")
            mask |= CatCore;
        else if (tok == "all")
            mask |= CatAll;
        else if (!tok.empty())
            return false;
        pos = comma + 1;
    }
    return mask != 0;
}

void
TraceRecorder::configure(unsigned category_mask, std::size_t ring_capacity)
{
    mask_ = category_mask;
    ringCap_ = ring_capacity;
    events_.clear();
    if (ringCap_)
        events_.reserve(ringCap_);
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    chainHist_.reset();
}

void
TraceRecorder::record(EventKind kind, Addr pc, std::uint64_t arg0,
                      std::uint64_t arg1)
{
    if (!(eventCategory(kind) & mask_))
        return;
    ++recorded_;
    if (kind == EventKind::VregRelease) {
        // Same 4x-log bucketing as VecRegFateStats::lifetimeHist.
        unsigned bucket = 0;
        for (Cycle bound = 8; bucket < 7 && arg1 >= bound; bound <<= 2)
            ++bucket;
        chainHist_.sample(bucket);
    }
    TraceEvent ev;
    ev.cycle = now_;
    ev.pc = pc;
    ev.arg0 = arg0;
    ev.arg1 = arg1;
    ev.kind = kind;
    if (ringCap_ && events_.size() == ringCap_) {
        events_[head_] = ev;
        head_ = (head_ + 1) % ringCap_;
        ++dropped_;
    } else {
        events_.push_back(ev);
    }
}

void
TraceRecorder::appendEventsJson(std::string &out, unsigned pid) const
{
    bool first = true;
    forEach([&](const TraceEvent &ev) {
        if (!first)
            out += ",\n";
        first = false;
        const char *name = eventName(ev.kind);
        const char *cat = categoryName(eventCategory(ev.kind));
        const auto ts = static_cast<unsigned long long>(ev.cycle);
        if (ev.kind == EventKind::VregAlloc ||
            ev.kind == EventKind::VregRelease) {
            // Async begin/end pairs keyed on reg+gen render vector
            // register lifetimes as spans in the trace viewer.
            const auto id =
                static_cast<unsigned long long>(ev.arg0 & 0xffffffffu);
            appendf(out,
                    "{\"name\":\"vreg\",\"cat\":\"%s\",\"ph\":\"%s\","
                    "\"id\":%llu,\"ts\":%llu,\"pid\":%u,\"tid\":0,"
                    "\"args\":",
                    cat, ev.kind == EventKind::VregAlloc ? "b" : "e", id, ts,
                    pid);
        } else {
            appendf(out,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
                    "\"s\":\"t\",\"ts\":%llu,\"pid\":%u,\"tid\":0,"
                    "\"args\":",
                    name, cat, ts, pid);
        }
        appendArgs(out, ev);
        out += "}";
    });
}

std::string
traceFileJson(const std::vector<TraceSource> &sources)
{
    std::string out;
    out += "{\"traceEvents\":[\n";
    bool first = true;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        if (!first)
            out += ",\n";
        first = false;
        appendf(out,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                unsigned(i), sources[i].label.c_str());
        if (sources[i].recorder && sources[i].recorder->size()) {
            out += ",\n";
            sources[i].recorder->appendEventsJson(out, unsigned(i));
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"sdv\","
           "\"time_unit\":\"cycle\",\"sources\":[";
    for (std::size_t i = 0; i < sources.size(); ++i) {
        const TraceRecorder *rec = sources[i].recorder;
        if (i)
            out += ",";
        appendf(out, "\n{\"label\":\"%s\",\"recorded\":%llu,\"dropped\":%llu,"
                     "\"chain_lifetime_hist\":",
                sources[i].label.c_str(),
                static_cast<unsigned long long>(rec ? rec->recorded() : 0),
                static_cast<unsigned long long>(rec ? rec->dropped() : 0));
        out += rec ? rec->chainLifetimeHist().toJson()
                   : Histogram(8).toJson();
        out += "}";
    }
    out += "\n]}}\n";
    return out;
}

bool
writeTraceFile(const std::string &path, const std::vector<TraceSource> &sources)
{
    return writeTextFile(path, traceFileJson(sources));
}

} // namespace obs
} // namespace sdv
