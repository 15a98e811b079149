/**
 * @file
 * Tests of the run-flag table (sweep/options.hh) that sdv_sweep and
 * the bench harness parse through: the one number parser rejects
 * malformed and out-of-range values with an error naming the flag and
 * the text given, each flag sets the field it documents, a front end
 * that simulates nothing rejects the flags it would ignore, and the
 * cross-flag checks stop the combinations that cannot work. Also the
 * writers behind the output flags (--json, --trace-events,
 * --fuzz-repro): each reports a write that fails part way.
 */

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/text_file.hh"
#include "harness.hh"
#include "obs/trace.hh"
#include "sweep/executor.hh"
#include "sweep/fuzz.hh"
#include "sweep/options.hh"

namespace sdv {
namespace {

/** Parse @p args (program name prepended) through the run flags. */
std::string
parse(sweep::RunOptions &o, std::vector<const char *> args,
      bool simulating = true)
{
    args.insert(args.begin(), "prog");
    return sweep::parseFlags(int(args.size()), args.data(),
                             sweep::runFlags(o, simulating));
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
         "--fault-elem-ppm '1000001': expected a whole number in "
         "[0, 1000000]"},
        {{"--footprint", "huge"},
         "--footprint 'huge': expected base, l2 or mem"},
        {{"--trace-filter", "sdv,gpu"},
         "--trace-filter 'sdv,gpu': expected a comma list of sdv, mem, "
         "core"},
        {{"--quick", "--samples"}, "--samples needs a value (N)"},
        {{"--bogus"}, "unknown flag '--bogus'"},
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
                        "--jobs", "3", "--seed", "7", "--no-event-skip",
                        "--no-trace", "--checkpoint", "--warmup", "0",
                        "--samples", "3", "--sample-insts", "500",
                        "--sample-period", "9000", "--checkpoint-dir",
                        "snaps", "--quiesce-interval", "2000",
                        "--eager-chain", "--verify", "--fault-elem-ppm",
                        "800", "--fault-vrmt-ppm", "300", "--json",
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
    EXPECT_FALSE(o.exec.eventSkip);
    EXPECT_FALSE(o.exec.trace);
    EXPECT_TRUE(o.exec.checkpoint);
    EXPECT_EQ(o.exec.warmupInsts, 1u); // 0 counts as 1
    EXPECT_EQ(o.exec.sample.samples, 3u);
    EXPECT_EQ(o.exec.sample.measureInsts, 500u);
    EXPECT_EQ(o.exec.sample.periodInsts, 9000u);
    EXPECT_EQ(o.exec.checkpointDir, "snaps");
    EXPECT_EQ(o.exec.quiesceInterval, 2000u);
    EXPECT_TRUE(o.exec.eagerChain);
    EXPECT_TRUE(o.exec.verify);
    EXPECT_TRUE(o.exec.fault.enabled);
    EXPECT_EQ(o.exec.fault.elemFlipPpm, 800u);
    EXPECT_EQ(o.exec.fault.vrmtFlipPpm, 300u);
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

TEST(RunFlags, FrontEndThatSimulatesNothingTakesOnlyWorkloadFlags)
{
    sweep::RunOptions o;
    EXPECT_EQ(parse(o, {"--scale", "2", "--footprint", "l2", "--quick"},
                    /*simulating=*/false),
              "");
    EXPECT_EQ(o.plan.scale, 2u);
    for (const char *flag : {"--json", "--trace-events", "--telemetry",
                             "--jobs", "--samples", "--verify"}) {
        sweep::RunOptions p;
        EXPECT_EQ(parse(p, {flag, "1"}, /*simulating=*/false),
                  "unknown flag '" + std::string(flag) + "'");
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
    EXPECT_FALSE(bench::writeRecords(fullDevice, "bench", {}, 0.0));
}

TEST(ResultWriters, EachWriterSucceedsOnAWritablePath)
{
    const std::string path = ::testing::TempDir() + "result_writer.json";
    EXPECT_TRUE(writeTextFile(path, "x"));
    EXPECT_TRUE(sweep::writeJsonDoc(path, "fig09", 1, Footprint::Base,
                                    sweep::ExecOptions{}, "[]", 0.0));
    EXPECT_TRUE(obs::writeTraceFile(path, {}));
    EXPECT_TRUE(sweep::writeFuzzRepro(path, sweep::FuzzCase{}, "unit-test"));
    EXPECT_TRUE(bench::writeRecords(path, "bench", {}, 0.0));
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

} // namespace
} // namespace sdv
