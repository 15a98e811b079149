/**
 * @file
 * Adversarial robustness tests: checkpoint-loader fuzzing (mutated /
 * truncated / torn images rejected cleanly on every workload), the
 * validation mutation test (a corrupted speculative element is caught
 * by the validation that consumes it and never reaches committed
 * state), and the speculation fuzzer's determinism, repro round trip
 * and delta-debugging minimizer.
 */

#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sweep/checkpoint.hh"
#include "sweep/fuzz.hh"
#include "workloads/workload.hh"

namespace sdv {
namespace {

std::deque<Program> &
keeper()
{
    static std::deque<Program> progs;
    return progs;
}

const Program &
keep(Program &&p)
{
    keeper().push_back(std::move(p));
    return keeper().back();
}

// --- checkpoint-loader fuzzing ---------------------------------------------

/** Flip one bit of each byte of @p bytes with probability
 *  @p flip_ppm / 1e6. @return the number of bytes corrupted. */
std::size_t
applyImageFaults(std::vector<std::uint8_t> &bytes, Random &rng,
                 std::uint32_t flip_ppm)
{
    std::size_t corrupted = 0;
    for (auto &b : bytes) {
        if (rng.below(1'000'000) < flip_ppm) {
            b ^= std::uint8_t(1) << rng.below(8);
            ++corrupted;
        }
    }
    return corrupted;
}

/** Every mutated, truncated or torn image must be rejected by both the
 *  header-only validate() and the full restore() without touching the
 *  target simulator — across all 12 workloads, so format drift in any
 *  serialized component is caught. */
TEST(CheckpointFuzz, CorruptedImagesRejectedOnEveryWorkload)
{
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Random rng(deriveSeed("ckpt-fuzz", "images", 1));

    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Program &prog = keep(w.instantiate(1));
        Simulator warm(cfg, prog);
        ASSERT_TRUE(warm.advanceTo(5'000));
        const std::vector<std::uint8_t> bytes =
            sweep::Checkpoint::capture(warm);

        // Sanity: the pristine image is accepted.
        {
            Simulator target(cfg, prog);
            EXPECT_TRUE(sweep::Checkpoint::validate(target, bytes));
        }

        // Mutated: random single-bit byte flips at increasing rates.
        for (const std::uint32_t ppm : {200u, 2'000u, 20'000u}) {
            std::vector<std::uint8_t> mut = bytes;
            if (applyImageFaults(mut, rng, ppm) == 0)
                continue; // the draw spared every byte this round
            Simulator target(cfg, prog);
            EXPECT_FALSE(sweep::Checkpoint::validate(target, mut));
            std::string err;
            EXPECT_FALSE(sweep::Checkpoint::restore(target, mut, &err));
            EXPECT_FALSE(err.empty());
        }

        // Truncated: cut at the header, mid-payload and one-byte-short.
        for (const std::size_t len :
             {std::size_t(0), std::size_t(8), bytes.size() / 2,
              bytes.size() - 1}) {
            std::vector<std::uint8_t> cut(bytes.begin(),
                                          bytes.begin() +
                                              std::ptrdiff_t(len));
            Simulator target(cfg, prog);
            EXPECT_FALSE(sweep::Checkpoint::validate(target, cut));
            std::string err;
            EXPECT_FALSE(sweep::Checkpoint::restore(target, cut, &err));
        }

        // Torn: a valid prefix spliced with garbage of the right total
        // length (models a partially-flushed snapshot file).
        {
            std::vector<std::uint8_t> torn = bytes;
            for (std::size_t i = torn.size() / 2; i < torn.size(); ++i)
                torn[i] = std::uint8_t(rng.next());
            Simulator target(cfg, prog);
            EXPECT_FALSE(sweep::Checkpoint::validate(target, torn));
            std::string err;
            EXPECT_FALSE(sweep::Checkpoint::restore(target, torn, &err));
        }
    }
}

// --- validation mutation test ----------------------------------------------

/** The property SDV rests on: a speculative element is compared with
 *  the value its own scalar instruction produces before anything
 *  commits. Corrupt one computed, not yet validated element of a
 *  register with a validation in flight; the validation that consumes
 *  it must report the mismatch, and the committed stream (which comes
 *  from the functional oracle) must not change. */
TEST(Validation, CatchesACorruptedLandedElement)
{
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    for (const char *name : {"compress", "go", "swim"}) {
        SCOPED_TRACE(name);
        const Program &prog = keep(buildWorkload(name, 1));

        Simulator clean(cfg, prog);
        const SimResult cres = clean.run(200'000'000, /*verify=*/true);
        ASSERT_TRUE(cres.finished);
        ASSERT_TRUE(cres.verified);
        EXPECT_EQ(cres.engine.validationValueMismatches, 0u);

        Simulator sim(cfg, prog);
        Core &core = sim.core();
        VecRegFile &vrf = core.engine().vrf();
        bool flipped = false;
        while (!flipped && !core.done()) {
            core.tick();
            if (core.cycle() <= 2'000)
                continue;
            vrf.forEachLive([&](VecRegRef ref) {
                if (flipped || !vrf.anyUsed(ref))
                    return;
                for (unsigned e = 0; e < vrf.elemCount(ref); ++e) {
                    if (vrf.isReady(ref, e) && !vrf.isValid(ref, e)) {
                        vrf.setData(ref, e, vrf.data(ref, e) ^ 1);
                        flipped = true;
                        return;
                    }
                }
            });
        }
        ASSERT_TRUE(flipped) << "no element in flight to corrupt";

        const SimResult res = sim.run(200'000'000, /*verify=*/true);
        ASSERT_TRUE(res.finished);
        EXPECT_TRUE(res.verified);
        EXPECT_GE(res.engine.validationValueMismatches, 1u);
        EXPECT_EQ(core.commitPcHash(), clean.core().commitPcHash());
        EXPECT_EQ(res.core.committedInsts, cres.core.committedInsts);
    }
}

// --- speculation fuzzing ---------------------------------------------------

/** Case drawing is a pure function of (workload, sample, base seed). */
TEST(Fuzz, DrawIsDeterministic)
{
    const sweep::FuzzCase a =
        sweep::drawFuzzCase("compress", 1, Footprint::Base, 3, 42);
    const sweep::FuzzCase b =
        sweep::drawFuzzCase("compress", 1, Footprint::Base, 3, 42);
    EXPECT_EQ(a.fuzzSeed, b.fuzzSeed);
    EXPECT_EQ(a.quiesceInterval, b.quiesceInterval);
    EXPECT_EQ(a.eagerChain, b.eagerChain);
    EXPECT_EQ(a.vlen, b.vlen);
    EXPECT_EQ(a.numVregs, b.numVregs);
    EXPECT_EQ(a.ports, b.ports);
    EXPECT_EQ(a.tlConfidence, b.tlConfidence);

    // Different sample / seed -> different perturbations (somewhere).
    const sweep::FuzzCase c =
        sweep::drawFuzzCase("compress", 1, Footprint::Base, 4, 42);
    EXPECT_NE(a.fuzzSeed, c.fuzzSeed);
}

/** A miniature campaign: every sample passes its divergence oracle. */
TEST(Fuzz, QuickCampaignHasNoDivergences)
{
    sweep::FuzzOptions opt;
    opt.samples = 2;
    opt.baseSeed = 0;
    opt.jobs = 2;
    opt.quick = true;
    opt.reproPath = ::testing::TempDir() + "sdv_fuzz_repro_test.json";

    const sweep::FuzzReport rep = sweep::runFuzzCampaign(opt);
    EXPECT_EQ(rep.divergences, 0u);
    EXPECT_EQ(rep.outcomes.size(), 6u); // 3 quick workloads x 2 samples
    EXPECT_TRUE(rep.reproPath.empty()); // nothing to minimize
    for (const sweep::FuzzOutcome &o : rep.outcomes) {
        EXPECT_FALSE(o.diverged) << o.c.workload << " sample "
                                 << o.c.sample << ": " << o.reason;
        EXPECT_EQ(o.sdvHash, o.refHash);
        EXPECT_EQ(o.sdvInsts, o.refInsts);
    }
}

/** @return the text of the file at @p path. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Repro files round-trip every perturbed knob, older files with the
 *  fault-injection keys still load, and a malformed value is rejected
 *  with its key and text named. */
TEST(Fuzz, ReproFileRoundTrip)
{
    const sweep::FuzzCase c =
        sweep::drawFuzzCase("ijpeg", 2, Footprint::Base, 5, 99);
    const std::string path =
        ::testing::TempDir() + "sdv_repro_roundtrip.json";
    ASSERT_TRUE(sweep::writeFuzzRepro(path, c, "unit-test"));
    const std::string text = readFile(path);

    const auto expectKnobs = [&c](const sweep::FuzzCase &l) {
        EXPECT_EQ(l.workload, c.workload);
        EXPECT_EQ(l.scale, c.scale);
        EXPECT_EQ(l.footprint, c.footprint);
        EXPECT_EQ(l.sample, c.sample);
        EXPECT_EQ(l.baseSeed, c.baseSeed);
        EXPECT_EQ(l.fuzzSeed, c.fuzzSeed);
        EXPECT_EQ(l.quiesceInterval, c.quiesceInterval);
        EXPECT_EQ(l.eagerChain, c.eagerChain);
        EXPECT_EQ(l.vlen, c.vlen);
        EXPECT_EQ(l.numVregs, c.numVregs);
        EXPECT_EQ(l.ports, c.ports);
        EXPECT_EQ(l.tlConfidence, c.tlConfidence);
    };
    sweep::FuzzCase l;
    std::string err;
    ASSERT_TRUE(sweep::loadFuzzRepro(path, l, &err)) << err;
    std::remove(path.c_str());
    expectKnobs(l);

    // A repro written while the fuzzer also injected faults carries
    // eight more keys; they are ignored and every other knob loads.
    {
        std::string old_text = text;
        const std::size_t end = old_text.rfind("\n}");
        ASSERT_NE(end, std::string::npos);
        old_text.insert(end, ",\n"
                             "  \"fault_enabled\": true,\n"
                             "  \"fault_seed\": 12345,\n"
                             "  \"elem_flip_ppm\": 800,\n"
                             "  \"vrmt_flip_ppm\": 300,\n"
                             "  \"tl_flip_ppm\": 900,\n"
                             "  \"gmrbb_flip_ppm\": 400,\n"
                             "  \"demote_threshold\": 4,\n"
                             "  \"reenable_window\": 64");
        const std::string old_path =
            ::testing::TempDir() + "sdv_repro_with_faults.json";
        std::ofstream(old_path) << old_text;
        sweep::FuzzCase lo;
        ASSERT_TRUE(sweep::loadFuzzRepro(old_path, lo, &err)) << err;
        std::remove(old_path.c_str());
        expectKnobs(lo);
    }

    // Malformed input is rejected with a reason, not a crash.
    sweep::FuzzCase bad;
    EXPECT_FALSE(
        sweep::loadFuzzRepro("/nonexistent/repro.json", bad, &err));
    EXPECT_FALSE(err.empty());

    // One field spoiled at a time: a sign, hex, trailing text, a value
    // beyond the field's range, an unknown footprint name.
    struct Spoil
    {
        std::string line; ///< the written line, as replaced
        std::string error;
    };
    const std::vector<Spoil> spoils = {
        {"\"scale\": -1",
         "\"scale\" '-1': expected a whole number in [1, 4294967295]"},
        {"\"vlen\": \"0x4\"",
         "\"vlen\" '0x4': expected a whole number in [2, 64]"},
        {"\"num_vregs\": \"128abc\"",
         "\"num_vregs\" '128abc': expected a whole number in [1, 65535]"},
        {"\"tl_confidence\": 258",
         "\"tl_confidence\" '258': expected a whole number in [0, 255]"},
        {"\"ports\": 5",
         "\"ports\" '5': expected a whole number in [1, 4]"},
        {"\"footprint\": \"huge\"",
         "\"footprint\" 'huge': expected base, l2 or mem"},
        {"\"eager_chain\": yes",
         "\"eager_chain\" 'yes': expected true or false"},
    };
    for (const Spoil &sp : spoils) {
        const std::string key = sp.line.substr(0, sp.line.find(':'));
        const std::size_t at = text.find("  " + key + ":");
        ASSERT_NE(at, std::string::npos) << key;
        std::string spoiled = text;
        spoiled.replace(at + 2, spoiled.find('\n', at) - at - 2,
                        sp.line + ",");
        const std::string bad_path =
            ::testing::TempDir() + "sdv_repro_spoiled.json";
        std::ofstream(bad_path) << spoiled;
        sweep::FuzzCase l2;
        err.clear();
        EXPECT_FALSE(sweep::loadFuzzRepro(bad_path, l2, &err)) << key;
        EXPECT_EQ(err, bad_path + ": " + sp.error);
        std::remove(bad_path.c_str());
    }
}

TEST(FuzzMinimizer, DeltaDebugEscapesCoupledKnobTrap)
{
    // Synthetic failure coupled across two knobs: it reproduces iff
    // (quiesce != 0) == eager — i.e. with both perturbed or neither.
    // Greedy single resets are stuck (either lone reset breaks the
    // equality); the pair reset minimizes fully.
    sweep::FuzzCase c;
    c.workload = "synthetic";
    c.quiesceInterval = 500;
    c.eagerChain = true;
    const sweep::FuzzPredicate diverges =
        [](const sweep::FuzzCase &t) {
            return (t.quiesceInterval != 0) == t.eagerChain;
        };
    ASSERT_TRUE(diverges(c));

    const sweep::FuzzCase greedy =
        sweep::minimizeFuzzCaseGreedy(c, diverges);
    EXPECT_EQ(500u, greedy.quiesceInterval);
    EXPECT_TRUE(greedy.eagerChain);

    const sweep::FuzzCase minimized = sweep::minimizeFuzzCase(c, diverges);
    EXPECT_TRUE(diverges(minimized))
        << "the minimized case must still reproduce";
    EXPECT_EQ(0u, minimized.quiesceInterval);
    EXPECT_FALSE(minimized.eagerChain);

    // Never larger than greedy: count perturbed knobs.
    const auto perturbed = [](const sweep::FuzzCase &t) {
        return int(t.quiesceInterval != 0) + int(t.eagerChain) +
               int(t.vlen != 4) + int(t.numVregs != 128) +
               int(t.ports != 1) + int(t.tlConfidence != 2) +
               int(t.fuzzSeed != 0);
    };
    EXPECT_LE(perturbed(minimized), perturbed(greedy));
}

// --- timing-channel pair / transient-exposure stats ------------------------

/** The attacker/victim pair is registered, buildable, and a quiesced
 *  run records the transient-exposure statistics the attack plan's
 *  JSON reports. */
TEST(TimingChannel, AttackPairExposesQuiesceStats)
{
    ASSERT_EQ(attackWorkloads().size(), 2u);
    ASSERT_NE(findWorkload("tc_victim"), nullptr);
    ASSERT_NE(findWorkload("tc_attack"), nullptr);

    for (const Workload &w : attackWorkloads()) {
        SCOPED_TRACE(w.name);
        const Program &prog = keep(w.instantiate(1));
        Simulator sim(makeConfig(4, 1, BusMode::WideBusSdv), prog);
        const SimResult res = sim.run(200'000'000, /*verify=*/true,
                                      /*quiesce_interval=*/2'000);
        ASSERT_TRUE(res.finished);
        EXPECT_TRUE(res.verified);
        EXPECT_GT(res.core.quiesceEvents, 0u);

        // Every released register lands in exactly one lifetime bucket.
        std::uint64_t hist = 0;
        for (const std::uint64_t b : res.fates.lifetimeHist)
            hist += b;
        EXPECT_EQ(hist, res.fates.regsReleased);
    }
}

} // namespace
} // namespace sdv
