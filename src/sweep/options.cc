#include "sweep/options.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/log.hh"
#include "obs/hooks.hh"

namespace sdv {
namespace sweep {

namespace {

constexpr std::uint64_t u32Max = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t u64Max = std::numeric_limits<std::uint64_t>::max();

constexpr const char *workloads = "workloads";
constexpr const char *execution = "execution";
constexpr const char *output = "output (docs/observability.md)";

/** @return "[min, max]", or ">= min" when max is unbounded. */
std::string
rangeText(std::uint64_t min, std::uint64_t max)
{
    if (max == u64Max)
        return ">= " + std::to_string(min);
    return "in [" + std::to_string(min) + ", " + std::to_string(max) +
           "]";
}

} // namespace

Flag
switchFlag(const char *section, const char *name, const char *help,
           std::function<void()> set)
{
    return {section, name, nullptr, help,
            [set = std::move(set)](const char *) {
                set();
                return std::string();
            }};
}

Flag
numberFlag(const char *section, const char *name, const char *value,
           const char *help, std::uint64_t min, std::uint64_t max,
           std::function<void(std::uint64_t)> set)
{
    return {section, name, value, help,
            [=, set = std::move(set)](const char *text) {
                const std::optional<std::uint64_t> v =
                    parseNumber(text, min, max);
                if (!v)
                    return numberComplaint(name, text, min, max);
                set(*v);
                return std::string();
            }};
}

Flag
textFlag(const char *section, const char *name, const char *value,
         const char *help,
         std::function<std::string(const std::string &)> set)
{
    return {section, name, value, help,
            [=, set = std::move(set)](const char *text) {
                const std::string complaint = set(text);
                if (complaint.empty())
                    return complaint;
                return std::string(name) + " '" + text + "': " +
                       complaint;
            }};
}

Flag
stringFlag(const char *section, const char *name, const char *value,
           const char *help, std::string &dst)
{
    return textFlag(section, name, value, help,
                    [&dst](const std::string &s) {
                        dst = s;
                        return std::string();
                    });
}

std::optional<std::uint64_t>
parseNumber(std::string_view text, std::uint64_t min, std::uint64_t max)
{
    // from_chars takes no '+' and, for an unsigned type, no '-'; an
    // empty string, a leading space or an overflow fail too.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v, 10);
    if (ec != std::errc() || ptr != end || v < min || v > max)
        return std::nullopt;
    return v;
}

std::string
numberComplaint(std::string_view what, std::string_view text,
                std::uint64_t min, std::uint64_t max)
{
    return std::string(what) + " '" + std::string(text) +
           "': expected a whole number " + rangeText(min, max);
}

std::vector<Flag>
runFlags(RunOptions &o, bool simulating)
{
    PlanOptions &p = o.plan;
    ExecOptions &e = o.exec;
    std::vector<Flag> flags = {
        numberFlag(workloads, "--scale", "N",
                   "workload scale factor (default 1)", 1, u32Max,
                   [&p](std::uint64_t v) { p.scale = unsigned(v); }),
        textFlag(workloads, "--footprint", "M",
                 "working-set regime: base, l2 or mem (default base)",
                 [&p](const std::string &s) {
                     const std::optional<Footprint> fp = findFootprint(s);
                     if (!fp)
                         return std::string("expected base, l2 or mem");
                     p.footprint = *fp;
                     return std::string();
                 }),
        switchFlag(workloads, "--quick",
                   "first two INT + first FP workloads only",
                   [&p] { p.quick = true; }),
        numberFlag(execution, "--jobs", "N",
                   "worker threads (default 1; 0 = hardware threads "
                   "minus one)",
                   0, u32Max,
                   [&e](std::uint64_t v) {
                       e.jobs = v ? unsigned(v) : resolveJobs(0);
                       e.jobsAutoDetected = v == 0;
                   }),
        numberFlag(execution, "--seed", "N",
                   "base of the per-job and fuzz-case seeds (default 0; "
                   "the workloads are deterministic, so plan results "
                   "do not change)",
                   0, u64Max,
                   [&p](std::uint64_t v) { p.baseSeed = v; }),
        switchFlag(execution, "--no-event-skip",
                   "tick every cycle (cross-check mode)",
                   [&e] { e.eventSkip = false; }),
        switchFlag(execution, "--no-trace",
                   "interpreter dispatch instead of the compiled trace "
                   "(cross-check mode)",
                   [&e] { e.trace = false; }),
        switchFlag(execution, "--checkpoint",
                   "warm each workload once, fork every config from "
                   "the snapshot",
                   [&e] { e.checkpoint = true; }),
        numberFlag(execution, "--warmup", "N",
                   "checkpoint/sampling warm-up in instructions "
                   "(default 10000; 0 counts as 1)",
                   0, u64Max,
                   [&e](std::uint64_t v) {
                       e.warmupInsts = std::max<std::uint64_t>(v, 1);
                   }),
        numberFlag(execution, "--samples", "N",
                   "interval sampling: estimate every job from N "
                   "snapshot forks (0 = full runs)",
                   0, 100'000,
                   [&e](std::uint64_t v) {
                       e.sample.samples = unsigned(v);
                   }),
        numberFlag(execution, "--sample-insts", "M",
                   "instructions measured per sample (default 20000)",
                   1, u64Max,
                   [&e](std::uint64_t v) { e.sample.measureInsts = v; }),
        numberFlag(execution, "--sample-period", "P",
                   "sample capture period in instructions (default: "
                   "spread evenly over the run)",
                   0, u64Max,
                   [&e](std::uint64_t v) { e.sample.periodInsts = v; }),
        stringFlag(execution, "--checkpoint-dir", "D",
                   "persist the snapshot sets of --checkpoint and "
                   "--samples in D and reuse them on later runs",
                   e.checkpointDir),
        numberFlag(execution, "--quiesce-interval", "N",
                   "context-switch the transient vector state every N "
                   "fetched instructions (full runs only)",
                   0, u64Max,
                   [&e](std::uint64_t v) { e.quiesceInterval = v; }),
        switchFlag(execution, "--eager-chain",
                   "spawn load-chain successors one incarnation early",
                   [&e] { e.eagerChain = true; }),
        switchFlag(execution, "--verify",
                   "verify every job against functional execution",
                   [&e] { e.verify = true; }),
        numberFlag(execution, "--fault-elem-ppm", "N",
                   "inject vector-element bit flips at N per million "
                   "landings",
                   0, 1'000'000,
                   [&e](std::uint64_t v) {
                       e.fault.elemFlipPpm = unsigned(v);
                       e.fault.enabled = true;
                   }),
        numberFlag(execution, "--fault-vrmt-ppm", "N",
                   "corrupt VRMT installs at N per million",
                   0, 1'000'000,
                   [&e](std::uint64_t v) {
                       e.fault.vrmtFlipPpm = unsigned(v);
                       e.fault.enabled = true;
                   }),
        stringFlag(output, "--json", "PATH",
                   "write machine-readable results to PATH", o.jsonPath),
        textFlag(output, "--trace-events", "F",
                 "record per-job flight-recorder traces and write "
                 "Chrome/Perfetto trace-event JSON to F",
                 [&o](const std::string &s) {
                     o.traceEventsPath = s;
                     o.exec.traceEvents = true;
                     return std::string();
                 }),
        textFlag(output, "--trace-filter", "C",
                 "event categories to record: comma list of sdv, mem, "
                 "core (default all)",
                 [&e](const std::string &s) {
                     if (obs::parseCategoryMask(s, e.traceCategories))
                         return std::string();
                     return std::string(
                         "expected a comma list of sdv, mem, core");
                 }),
        numberFlag(output, "--trace-last", "N",
                   "keep only each job's last N events (default: all)",
                   0, std::numeric_limits<std::size_t>::max(),
                   [&e](std::uint64_t v) { e.traceLast = v; }),
        numberFlag(output, "--telemetry", "N",
                   "sample interval telemetry every N cycles into each "
                   "--json record",
                   1, u64Max,
                   [&e](std::uint64_t v) { e.telemetryInterval = v; }),
    };
    if (!simulating)
        std::erase_if(flags, [](const Flag &f) {
            return std::string_view(f.section) != workloads;
        });
    return flags;
}

std::string
parseFlags(int argc, const char *const *argv,
           const std::vector<Flag> &flags)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return arg == f.name; });
        if (flag == flags.end())
            return "unknown flag '" + std::string(arg) + "'";
        const char *text = nullptr;
        if (flag->value) {
            if (i + 1 >= argc)
                return std::string(flag->name) + " needs a value (" +
                       flag->value + ")";
            text = argv[++i];
        }
        const std::string err = flag->apply(text);
        if (!err.empty())
            return err;
    }
    return std::string();
}

std::string
flagUsage(const std::vector<Flag> &flags)
{
    constexpr std::size_t helpColumn = 24;
    constexpr std::size_t width = 79;

    std::vector<std::string> sections;
    for (const Flag &f : flags)
        if (std::find(sections.begin(), sections.end(), f.section) ==
            sections.end())
            sections.push_back(f.section);

    std::string out;
    for (const std::string &section : sections) {
        out += section + ":\n";
        for (const Flag &f : flags) {
            if (section != f.section)
                continue;
            std::string line = std::string("  ") + f.name;
            if (f.value)
                line += std::string(" ") + f.value;
            if (line.size() + 1 > helpColumn) {
                out += line + "\n";
                line.clear();
            }
            // Fill the help column word by word.
            std::string_view help = f.help;
            while (!help.empty()) {
                line.resize(helpColumn, ' ');
                std::size_t take = help.size();
                if (helpColumn + take > width)
                    take = std::min(help.size(),
                                    help.rfind(' ', width - helpColumn));
                line += help.substr(0, take);
                out += line + "\n";
                line.clear();
                help.remove_prefix(std::min(help.size(), take + 1));
            }
        }
    }
    return out;
}

void
usageExit(const std::string &synopsis, const std::vector<Flag> &flags,
          const std::string &error)
{
    std::fprintf(stderr, "%s\n%s", synopsis.c_str(),
                 flagUsage(flags).c_str());
    if (!error.empty())
        std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(2);
}

void
checkRunOptions(const RunOptions &o)
{
    const ExecOptions &e = o.exec;
    if (e.sample.enabled() && e.verify)
        fatal("--verify is incompatible with --samples: sampled "
              "results are estimates, not verifiable runs");
    if (e.telemetryInterval && o.jsonPath.empty())
        fatal("--telemetry needs --json: the telemetry is written into "
              "the JSON records");
    if (e.sample.enabled() && e.checkpoint)
        warn("--samples subsumes --checkpoint; sampling mode used");
    if (e.sample.enabled() && (e.traceEvents || e.telemetryInterval))
        warn("--trace-events/--telemetry only observe full runs; "
             "sampled jobs are not instrumented");
    if (e.traceEvents && !SDV_OBS_ENABLED)
        warn("this build has SDV_OBS off: the trace file will contain "
             "no events");
}

void
writeTraceEvents(const std::string &path,
                 const std::vector<RunOutcome> &outcomes)
{
    const std::vector<obs::TraceSource> sources = traceSources(outcomes);
    if (!obs::writeTraceFile(path, sources))
        fatal("cannot write ", path);
    std::size_t recorded = 0;
    for (const obs::TraceSource &s : sources)
        recorded += s.recorder->size();
    std::printf("trace: %zu events from %zu jobs written to %s\n",
                recorded, sources.size(), path.c_str());
}

} // namespace sweep
} // namespace sdv
