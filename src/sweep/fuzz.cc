#include "sweep/fuzz.hh"

#include <cctype>
#include <cstdio>
#include <functional>
#include <optional>
#include <type_traits>

#include "common/log.hh"
#include "common/random.hh"
#include "common/text_file.hh"
#include "sim/simulator.hh"
#include "sweep/executor.hh"
#include "sweep/options.hh"

namespace sdv {
namespace sweep {

FuzzCase
drawFuzzCase(const std::string &workload, unsigned scale, Footprint fp,
             unsigned sample, std::uint64_t base_seed)
{
    FuzzCase c;
    c.workload = workload;
    c.scale = scale;
    c.footprint = fp;
    c.sample = sample;
    c.baseSeed = base_seed;

    // One private stream per (workload, sample): adding a draw for a
    // new knob never perturbs any other sample's case.
    Random rng(deriveSeed(workload, "fuzz:" + std::to_string(sample),
                          base_seed));

    c.fuzzSeed = rng.next();

    // Chain alignment: a mid-run quiesce at a prime-ish cadence kills
    // chains at arbitrary incarnation phases. A third of the samples
    // keep chains uninterrupted (the alignment the figures measure).
    c.quiesceInterval =
        rng.below(3) == 0 ? 0 : std::uint64_t(rng.range(97, 4099));

    c.eagerChain = rng.below(2) == 0;

    static const unsigned vlens[] = {2, 4, 8};
    c.vlen = vlens[rng.below(3)];
    static const unsigned vregs[] = {8, 16, 32, 64, 128};
    c.numVregs = vregs[rng.below(5)];
    static const unsigned ports[] = {1, 2, 4};
    c.ports = ports[rng.below(3)];
    c.tlConfidence = std::uint8_t(rng.range(1, 3));
    return c;
}

namespace {

/** The fuzzed machine: the paper's 4-way wide-bus SDV core with the
 *  case's drawn geometry. */
CoreConfig
fuzzedConfig(const FuzzCase &c)
{
    CoreConfig cfg = makeConfig(4, c.ports, BusMode::WideBusSdv);
    cfg.engine.vlen = c.vlen;
    cfg.engine.numVregs = c.numVregs;
    cfg.engine.tlConfidence = c.tlConfidence;
    cfg.engine.eagerChainLoads = c.eagerChain;
    return cfg;
}

/** The divergence oracle: the same machine with no SDV engine (and
 *  therefore nothing speculative to misalign). */
CoreConfig
oracleConfig(const FuzzCase &c)
{
    return makeConfig(4, c.ports, BusMode::WideBus);
}

bool
sameCase(const FuzzCase &a, const FuzzCase &b)
{
    return a.fuzzSeed == b.fuzzSeed &&
           a.quiesceInterval == b.quiesceInterval &&
           a.eagerChain == b.eagerChain && a.vlen == b.vlen &&
           a.numVregs == b.numVregs && a.ports == b.ports &&
           a.tlConfidence == b.tlConfidence;
}

} // namespace

FuzzOutcome
runFuzzCase(const FuzzCase &c, std::uint64_t max_cycles)
{
    FuzzOutcome out;
    out.c = c;

    Program prog =
        buildWorkload(c.workload, c.scale, c.footprint, c.fuzzSeed);
    prog.predecodeAll();

    Simulator sdv(fuzzedConfig(c), prog);
    const SimResult sres =
        sdv.run(max_cycles, /*verify=*/true, c.quiesceInterval);
    out.sdvHash = sdv.core().commitPcHash();
    out.sdvInsts = sres.core.committedInsts;

    Simulator ref(oracleConfig(c), prog);
    const SimResult rres = ref.run(max_cycles, /*verify=*/true, 0);
    out.refHash = ref.core().commitPcHash();
    out.refInsts = rres.core.committedInsts;

    // Record the *first* failed check: later checks compare values a
    // failed earlier check already invalidates.
    const auto fail = [&out](const char *why) {
        if (!out.diverged)
            out.reason = why;
        out.diverged = true;
    };
    if (!sres.finished)
        fail("sdv run hit the cycle budget");
    if (!sres.verified)
        fail("sdv run failed architectural verification");
    if (!rres.finished)
        fail("oracle run hit the cycle budget");
    if (!rres.verified)
        fail("oracle run failed architectural verification");
    if (!out.diverged && out.sdvInsts != out.refInsts)
        fail("committed instruction counts differ");
    if (!out.diverged && out.sdvHash != out.refHash)
        fail("committed-PC streams differ");
    return out;
}

namespace {

/** The knob resets minimization explores, most-complex first, so the
 *  surviving repro names the smallest set of perturbations that still
 *  fails. */
const std::function<void(FuzzCase &)> kKnobResets[] = {
    [](FuzzCase &t) { t.quiesceInterval = 0; },
    [](FuzzCase &t) { t.eagerChain = false; },
    [](FuzzCase &t) { t.vlen = 4; },
    [](FuzzCase &t) { t.numVregs = 128; },
    [](FuzzCase &t) { t.ports = 1; },
    [](FuzzCase &t) { t.tlConfidence = 2; },
    [](FuzzCase &t) { t.fuzzSeed = 0; },
};
constexpr std::size_t kNumKnobResets =
    sizeof(kKnobResets) / sizeof(kKnobResets[0]);

} // namespace

FuzzCase
minimizeFuzzCaseGreedy(const FuzzCase &c, const FuzzPredicate &diverges)
{
    FuzzCase best = c;
    for (const auto &reset : kKnobResets) {
        FuzzCase trial = best;
        reset(trial);
        if (sameCase(trial, best))
            continue; // knob already at its default
        if (diverges(trial))
            best = trial;
    }
    return best;
}

FuzzCase
minimizeFuzzCase(const FuzzCase &c, const FuzzPredicate &diverges)
{
    // Delta-debug over reset *pairs*: a divergence coupled across two
    // knobs (still fails only when both or neither are reset) defeats
    // every single reset but falls to the joint one. Each accepted
    // trial moves at least one more knob to its default, so the loop
    // reaches a fixpoint in at most kNumKnobResets rounds.
    FuzzCase best = minimizeFuzzCaseGreedy(c, diverges);
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t i = 0; i + 1 < kNumKnobResets && !progress;
             ++i) {
            for (std::size_t j = i + 1; j < kNumKnobResets; ++j) {
                FuzzCase trial = best;
                kKnobResets[i](trial);
                kKnobResets[j](trial);
                if (sameCase(trial, best))
                    continue; // both knobs already default
                if (diverges(trial)) {
                    best = minimizeFuzzCaseGreedy(trial, diverges);
                    progress = true;
                    break;
                }
            }
        }
    }
    return best;
}

FuzzCase
minimizeFuzzCase(const FuzzCase &c, std::uint64_t max_cycles)
{
    return minimizeFuzzCase(c, [&](const FuzzCase &t) {
        return runFuzzCase(t, max_cycles).diverged;
    });
}

FuzzReport
runFuzzCampaign(const FuzzOptions &opt)
{
    std::vector<FuzzCase> cases;
    for (const Workload *w : selectWorkloads(allWorkloads(), opt.quick))
        for (unsigned k = 0; k < opt.samples; ++k)
            cases.push_back(drawFuzzCase(w->name, opt.scale,
                                         opt.footprint, k,
                                         opt.baseSeed));

    FuzzReport rep;
    rep.outcomes.resize(cases.size());
    runOnPool(opt.jobs, cases.size(), [&](std::size_t i) {
        rep.outcomes[i] = runFuzzCase(cases[i], opt.maxCycles);
    });

    const FuzzOutcome *first_failure = nullptr;
    for (const FuzzOutcome &o : rep.outcomes) {
        if (o.diverged) {
            ++rep.divergences;
            if (!first_failure)
                first_failure = &o;
            warn("fuzz divergence: ", o.c.workload, " sample ",
                 o.c.sample, ": ", o.reason);
        }
    }

    if (first_failure && !opt.reproPath.empty()) {
        const FuzzCase minimized =
            minimizeFuzzCase(first_failure->c, opt.maxCycles);
        if (writeFuzzRepro(opt.reproPath, minimized,
                           first_failure->reason))
            rep.reproPath = opt.reproPath;
        else
            warn("cannot write fuzz repro ", opt.reproPath);
    }
    return rep;
}

bool
writeFuzzRepro(const std::string &path, const FuzzCase &c,
               const std::string &reason)
{
    std::string doc;
    appendf(
        doc,
        "{\n"
        "  \"fuzz_repro\": 1,\n"
        "  \"reason\": \"%s\",\n"
        "  \"workload\": \"%s\",\n"
        "  \"scale\": %u,\n"
        "  \"footprint\": \"%s\",\n"
        "  \"sample\": %u,\n"
        "  \"base_seed\": %llu,\n"
        "  \"fuzz_seed\": %llu,\n"
        "  \"quiesce_interval\": %llu,\n"
        "  \"eager_chain\": %s,\n"
        "  \"vlen\": %u,\n"
        "  \"num_vregs\": %u,\n"
        "  \"ports\": %u,\n"
        "  \"tl_confidence\": %u\n"
        "}\n",
        reason.c_str(), c.workload.c_str(), c.scale,
        footprintName(c.footprint), c.sample,
        static_cast<unsigned long long>(c.baseSeed),
        static_cast<unsigned long long>(c.fuzzSeed),
        static_cast<unsigned long long>(c.quiesceInterval),
        c.eagerChain ? "true" : "false", c.vlen, c.numVregs, c.ports,
        unsigned(c.tlConfidence));
    return writeTextFile(path, doc);
}

namespace {

/** Extract the raw value token after `"key":` (quoted string contents
 *  or the bare number/bool). @return false when the key is absent. */
bool
jsonField(const std::string &text, const std::string &key,
          std::string &val)
{
    const std::string pat = "\"" + key + "\"";
    std::size_t p = text.find(pat);
    if (p == std::string::npos)
        return false;
    p = text.find(':', p + pat.size());
    if (p == std::string::npos)
        return false;
    ++p;
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p])))
        ++p;
    if (p >= text.size())
        return false;
    if (text[p] == '"') {
        const std::size_t e = text.find('"', p + 1);
        if (e == std::string::npos)
            return false;
        val = text.substr(p + 1, e - p - 1);
        return true;
    }
    std::size_t e = p;
    while (e < text.size() && text[e] != ',' && text[e] != '}' &&
           text[e] != '\n')
        ++e;
    while (e > p &&
           std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    val = text.substr(p, e - p);
    return !val.empty();
}

} // namespace

bool
loadFuzzRepro(const std::string &path, FuzzCase &c, std::string *err)
{
    const auto failed = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };

    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return failed("cannot open " + path);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    std::string v;
    if (!jsonField(text, "fuzz_repro", v))
        return failed(path + " is not a fuzz repro file "
                             "(no \"fuzz_repro\" marker)");
    if (!jsonField(text, "workload", v) || !findWorkload(v))
        return failed(path + ": missing or unknown \"workload\"");
    c.workload = v;

    // Every other key is optional; a present one must hold a value of
    // its field's kind and range. Each reader returns false, with the
    // complaint set, on a malformed value.
    std::string complaint;
    const auto number = [&](const char *key, auto &field,
                            std::uint64_t min, std::uint64_t max) {
        if (!jsonField(text, key, v))
            return true;
        const std::optional<std::uint64_t> num = parseNumber(v, min, max);
        if (!num) {
            complaint = numberComplaint(std::string("\"") + key + "\"",
                                        v, min, max);
            return false;
        }
        field = std::remove_reference_t<decltype(field)>(*num);
        return true;
    };
    const auto flag = [&](const char *key, bool &field) {
        if (!jsonField(text, key, v))
            return true;
        if (v != "true" && v != "false") {
            complaint = std::string("\"") + key + "\" '" + v +
                        "': expected true or false";
            return false;
        }
        field = v == "true";
        return true;
    };
    const auto footprint = [&] {
        if (!jsonField(text, "footprint", v))
            return true;
        const std::optional<Footprint> fp = findFootprint(v);
        if (!fp) {
            complaint = "\"footprint\" '" + v +
                        "': expected base, l2 or mem";
            return false;
        }
        c.footprint = *fp;
        return true;
    };
    constexpr std::uint64_t u32Max = 0xffff'ffffu;
    constexpr std::uint64_t u64Max = ~std::uint64_t(0);
    const bool ok =
        number("scale", c.scale, 1, u32Max) && footprint() &&
        number("sample", c.sample, 0, u32Max) &&
        number("base_seed", c.baseSeed, 0, u64Max) &&
        number("fuzz_seed", c.fuzzSeed, 0, u64Max) &&
        number("quiesce_interval", c.quiesceInterval, 0, u64Max) &&
        flag("eager_chain", c.eagerChain) &&
        number("vlen", c.vlen, 2, 64) &&
        number("num_vregs", c.numVregs, 1, 65'535) &&
        number("ports", c.ports, 1, 4) &&
        number("tl_confidence", c.tlConfidence, 0, 255);
    if (!ok)
        return failed(path + ": " + complaint);
    if (c.ports != 1 && c.ports != 2 && c.ports != 4)
        return failed(path + ": ports must be 1, 2 or 4");
    return true;
}

} // namespace sweep
} // namespace sdv
