/**
 * @file
 * Tests of the run-flag table (sweep/options.hh) that sdv_sweep and
 * the bench harness parse through: the one number parser rejects
 * malformed and out-of-range values with an error naming the flag and
 * the text given, each flag sets the field it documents, a front end
 * or mode that reads a subset of the table rejects every flag outside
 * it, and the cross-flag checks stop the combinations that cannot
 * work. Also the writers behind the output flags (--json,
 * --trace-events, --fuzz-repro): each reports a write that fails part
 * way, and the error messages of panic(), fatal() and sdv_assert, which
 * name the file and line of their caller.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/text_file.hh"
#include "obs/trace.hh"
#include "sweep/executor.hh"
#include "sweep/fuzz.hh"
#include "sweep/options.hh"

namespace sdv {
namespace {

/** Parse @p args (program name prepended) through the run flags, or
 *  through the subset @p only names. */
std::string
parse(sweep::RunOptions &o, std::vector<const char *> args,
      const std::vector<std::string_view> &only = {})
{
    args.insert(args.begin(), "prog");
    return sweep::parseFlags(
        int(args.size()), args.data(),
        only.empty() ? sweep::runFlags(o)
                     : sweep::onlyFlags(sweep::runFlags(o), only));
}

TEST(RunFlags, NumberParserTakesOnlyPlainDecimalsInRange)
{
    constexpr std::uint64_t u64Max =
        std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(sweep::parseNumber("0", 0, 10), 0u);
    EXPECT_EQ(sweep::parseNumber("10", 0, 10), 10u);
    EXPECT_EQ(sweep::parseNumber("007", 0, 10), 7u); // decimal, not octal
    EXPECT_EQ(sweep::parseNumber("18446744073709551615", 0, u64Max),
              u64Max);
    for (const char *bad : {"", "-1", "-0", "+3", " 3", "3 ", "3x", "0x10",
                            "abc", "1e3", "1.5", "11"})
        EXPECT_FALSE(sweep::parseNumber(bad, 0, 10)) << "'" << bad << "'";
    EXPECT_FALSE(sweep::parseNumber("0", 1, 10));
    EXPECT_FALSE(
        sweep::parseNumber("18446744073709551616", 0, u64Max)); // overflow
}

TEST(RunFlags, MalformedValuesFailNamingTheFlagAndText)
{
    struct Case
    {
        std::vector<const char *> args;
        std::string error;
    };
    const std::vector<Case> cases = {
        {{"--scale", "-1"},
         "--scale '-1': expected a whole number in [1, 4294967295]"},
        {{"--scale", "abc"},
         "--scale 'abc': expected a whole number in [1, 4294967295]"},
        {{"--scale", "0"},
         "--scale '0': expected a whole number in [1, 4294967295]"},
        {{"--scale", "4294967296"},
         "--scale '4294967296': expected a whole number in "
         "[1, 4294967295]"},
        {{"--jobs", "abc"},
         "--jobs 'abc': expected a whole number in [0, 4294967295]"},
        {{"--samples", "3x"},
         "--samples '3x': expected a whole number in [0, 100000]"},
        {{"--samples", "-5"},
         "--samples '-5': expected a whole number in [0, 100000]"},
        {{"--samples", ""},
         "--samples '': expected a whole number in [0, 100000]"},
        {{"--samples", "100001"},
         "--samples '100001': expected a whole number in [0, 100000]"},
        {{"--telemetry", "0"},
         "--telemetry '0': expected a whole number >= 1"},
        {{"--fault-elem-ppm", "1000001"},
         "unknown flag '--fault-elem-ppm'"},
        {{"--footprint", "huge"},
         "--footprint 'huge': expected base, l2 or mem"},
        {{"--trace-filter", "sdv,gpu"},
         "--trace-filter 'sdv,gpu': expected a comma list of sdv, mem, "
         "core"},
        {{"--quick", "--samples"}, "--samples needs a value (N)"},
        {{"--bogus"}, "unknown flag '--bogus'"},
        {{"--checkpoint"}, "unknown flag '--checkpoint'"},
        {{"--checkpoint-dir", "snaps"}, "unknown flag '--checkpoint-dir'"},
    };
    for (const Case &c : cases) {
        sweep::RunOptions o;
        EXPECT_EQ(parse(o, c.args), c.error);
    }
}

TEST(RunFlags, EachFlagSetsItsField)
{
    sweep::RunOptions o;
    ASSERT_EQ(parse(o, {"--scale", "4", "--footprint", "mem", "--quick",
                        "--jobs", "3", "--seed", "7", "--no-trace",
                        "--warmup", "0",
                        "--samples", "3", "--sample-insts", "500",
                        "--sample-period", "9000",
                        "--quiesce-interval", "2000",
                        "--eager-chain", "--verify", "--json",
                        "o.json", "--trace-events", "t.json",
                        "--trace-filter", "sdv,mem", "--trace-last", "100",
                        "--telemetry", "5000"}),
              "");
    EXPECT_EQ(o.plan.scale, 4u);
    EXPECT_EQ(o.plan.footprint, Footprint::Mem);
    EXPECT_TRUE(o.plan.quick);
    EXPECT_EQ(o.plan.baseSeed, 7u);
    EXPECT_EQ(o.exec.jobs, 3u);
    EXPECT_FALSE(o.exec.jobsAutoDetected);
    EXPECT_FALSE(o.exec.trace);
    EXPECT_EQ(o.exec.warmupInsts, 1u); // 0 counts as 1
    EXPECT_EQ(o.exec.sample.samples, 3u);
    EXPECT_EQ(o.exec.sample.measureInsts, 500u);
    EXPECT_EQ(o.exec.sample.periodInsts, 9000u);
    EXPECT_EQ(o.exec.quiesceInterval, 2000u);
    EXPECT_TRUE(o.exec.eagerChain);
    EXPECT_TRUE(o.exec.verify);
    EXPECT_EQ(o.jsonPath, "o.json");
    EXPECT_EQ(o.traceEventsPath, "t.json");
    EXPECT_TRUE(o.exec.traceEvents);
    EXPECT_EQ(o.exec.traceCategories, obs::CatSdv | obs::CatMem);
    EXPECT_EQ(o.exec.traceLast, 100u);
    EXPECT_EQ(o.exec.telemetryInterval, 5000u);

    sweep::RunOptions autodetect;
    ASSERT_EQ(parse(autodetect, {"--jobs", "0"}), "");
    EXPECT_EQ(autodetect.exec.jobs, sweep::resolveJobs(0));
    EXPECT_TRUE(autodetect.exec.jobsAutoDetected);
}

TEST(RunFlags, SubsetTakesOnlyItsFlags)
{
    sweep::RunOptions o;
    EXPECT_EQ(parse(o, {"--scale", "2", "--footprint", "l2", "--quick"},
                    {"--scale", "--footprint", "--quick"}),
              "");
    EXPECT_EQ(o.plan.scale, 2u);

    // The inspection benches, sdv_sweep --list and sdv_sweep
    // --fuzz-speculation: every run flag outside the subset is unknown.
    const std::vector<std::vector<std::string_view>> subsets = {
        {"--scale", "--footprint", "--quick"},
        {"--scale"},
        {"--scale", "--footprint", "--quick", "--jobs", "--seed"},
    };
    sweep::RunOptions all;
    for (const std::vector<std::string_view> &only : subsets) {
        sweep::RunOptions p;
        EXPECT_EQ(sweep::onlyFlags(sweep::runFlags(p), only).size(),
                  only.size());
        for (const sweep::Flag &f : sweep::runFlags(all)) {
            const bool taken =
                std::find(only.begin(), only.end(), f.name) != only.end();
            sweep::RunOptions q;
            EXPECT_EQ(parse(q, {f.name, "1"}, only) ==
                          "unknown flag '" + std::string(f.name) + "'",
                      !taken)
                << f.name << " in a subset of " << only.size();
        }
    }
}

TEST(RunFlags, UsageListsEveryFlagOnce)
{
    sweep::RunOptions o;
    const std::vector<sweep::Flag> flags = sweep::runFlags(o);
    const std::string usage = sweep::flagUsage(flags);
    for (const sweep::Flag &f : flags) {
        const std::string entry = std::string("\n  ") + f.name + " ";
        const std::size_t at = usage.find(entry);
        EXPECT_NE(at, std::string::npos) << f.name;
        EXPECT_EQ(usage.find(entry, at + 1), std::string::npos) << f.name;
    }
}

TEST(RunFlags, CrossFlagChecksStopWhatCannotWork)
{
    sweep::RunOptions sampled;
    ASSERT_EQ(parse(sampled, {"--samples", "3", "--verify"}), "");
    EXPECT_EXIT(sweep::checkRunOptions(sampled),
                ::testing::ExitedWithCode(1),
                "--verify is incompatible with --samples");

    sweep::RunOptions telemetry;
    ASSERT_EQ(parse(telemetry, {"--telemetry", "100"}), "");
    EXPECT_EXIT(sweep::checkRunOptions(telemetry),
                ::testing::ExitedWithCode(1), "--telemetry needs --json");

    // --quiesce-interval applies to full runs only.
    sweep::RunOptions quiesced;
    ASSERT_EQ(parse(quiesced, {"--samples", "3", "--quiesce-interval",
                               "2000"}),
              "");
    EXPECT_EXIT(sweep::checkRunOptions(quiesced),
                ::testing::ExitedWithCode(1),
                "--quiesce-interval is incompatible with --samples");

    // A flag that acts only under another one is refused without it,
    // instead of being recorded in the JSON header of a run it did not
    // shape; an observer is refused with --samples, whose jobs it
    // cannot observe.
    struct Case
    {
        std::vector<const char *> args;
        const char *error;
    };
    const char *sampling = "--warmup, --sample-insts and --sample-period "
                           "need --samples";
    const char *tracing = "--trace-filter and --trace-last need "
                          "--trace-events";
    const char *observing = "--trace-events and --telemetry are "
                            "incompatible with --samples";
    const std::vector<Case> refused = {
        {{"--warmup", "5", "--json", "o.json"}, sampling},
        {{"--sample-insts", "500"}, sampling},
        {{"--sample-period", "9000"}, sampling},
        {{"--trace-filter", "sdv"}, tracing},
        {{"--trace-last", "100"}, tracing},
        {{"--samples", "3", "--trace-events", "t.json"}, observing},
        {{"--samples", "3", "--telemetry", "500", "--json", "tj.json"},
         observing},
    };
    for (const Case &c : refused) {
        sweep::RunOptions o;
        ASSERT_EQ(parse(o, c.args), "") << c.args.front();
        EXPECT_EXIT(sweep::checkRunOptions(o), ::testing::ExitedWithCode(1),
                    c.error)
            << c.args.front();
    }

    // Each passes with the flag it needs, or at its own default.
    const std::vector<std::vector<const char *>> allowed = {
        {"--samples", "3", "--warmup", "5", "--sample-insts", "500",
         "--sample-period", "9000"},
        {"--trace-events", "t.json", "--trace-filter", "sdv",
         "--trace-last", "100"},
        {"--warmup", "10000", "--sample-insts", "20000",
         "--sample-period", "0", "--trace-filter", "sdv,mem,core",
         "--trace-last", "0"},
    };
    for (const std::vector<const char *> &args : allowed) {
        sweep::RunOptions o;
        ASSERT_EQ(parse(o, args), "") << args.front();
        EXPECT_EXIT(
            {
                sweep::checkRunOptions(o);
                std::exit(0);
            },
            ::testing::ExitedWithCode(0), "")
            << args.front();
    }
}

// --- result writers --------------------------------------------------------

/** Opens like any file, and every write to it fails with ENOSPC. */
const std::string fullDevice = "/dev/full";

TEST(ResultWriters, EachWriterFailsOnAFullDevice)
{
    // One byte stays in the stdio buffer, so only fclose can see it
    // fail.
    EXPECT_FALSE(writeTextFile(fullDevice, "x"));
    EXPECT_FALSE(sweep::writeJsonDoc(fullDevice, "fig09", 1,
                                     Footprint::Base, sweep::ExecOptions{},
                                     "[]", 0.0));
    EXPECT_FALSE(obs::writeTraceFile(fullDevice, {}));
    EXPECT_FALSE(
        sweep::writeFuzzRepro(fullDevice, sweep::FuzzCase{}, "unit-test"));
}

TEST(ResultWriters, EachWriterSucceedsOnAWritablePath)
{
    const std::string path = ::testing::TempDir() + "result_writer.json";
    EXPECT_TRUE(writeTextFile(path, "x"));
    EXPECT_TRUE(sweep::writeJsonDoc(path, "fig09", 1, Footprint::Base,
                                    sweep::ExecOptions{}, "[]", 0.0));
    EXPECT_TRUE(obs::writeTraceFile(path, {}));
    EXPECT_TRUE(sweep::writeFuzzRepro(path, sweep::FuzzCase{}, "unit-test"));
    std::remove(path.c_str());
}

TEST(ResultWriters, AppendfHasNoLengthLimit)
{
    const std::string long_arg(10000, 'a');
    std::string out = "x";
    appendf(out, "<%s>%d", long_arg.c_str(), 7);
    EXPECT_EQ(out, "x<" + long_arg + ">7");
    appendf(out, "%s", "");
    EXPECT_EQ(out, "x<" + long_arg + ">7");
}

// --- error messages --------------------------------------------------------

/** @return a POSIX regex that matches @p text literally. */
std::string
literal(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (std::string_view("\\.^$|()[]{}*+?").find(c) !=
            std::string_view::npos)
            out += '\\';
        out += c;
    }
    return out;
}

constexpr int failedAssertLine = __LINE__ + 4;
void
failAnAssert()
{
    sdv_assert(2 + 2 == 5, "on purpose");
}

constexpr int fatalLine = __LINE__ + 4;
void
stopWithFatal()
{
    fatal("stopped at ", 42);
}

TEST(ErrorMessages, NameTheCallersFileAndLine)
{
    const std::string file = __FILE__;
    EXPECT_DEATH(failAnAssert(),
                 literal("panic: assertion failed: 2 + 2 == 5 on purpose (" +
                         file + ":" + std::to_string(failedAssertLine) +
                         ")"));
    EXPECT_EXIT(stopWithFatal(), ::testing::ExitedWithCode(1),
                literal("fatal: stopped at 42 (" + file + ":" +
                        std::to_string(fatalLine) + ")"));
}

} // namespace
} // namespace sdv
