/**
 * @file
 * The run flags of every sweep front end, defined once. sdv_sweep and
 * the bench harness (bench/harness.hh) parse through runFlags(): one
 * entry per flag holding its name, value kind and bounds, help line
 * and the PlanOptions/ExecOptions field it sets. Usage text, the
 * number parser and the cross-flag checks come from here too, so a
 * flag means the same thing, and fails the same way, in every binary.
 * Front-end-only flags (sdv_sweep's --plan, --list, fuzzing) are Flags
 * of the same shape, declared next to the code that reads them.
 */

#ifndef SDV_SWEEP_OPTIONS_HH
#define SDV_SWEEP_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/executor.hh"
#include "sweep/plan.hh"

namespace sdv {
namespace sweep {

/** Everything the run flags set: what to run, how, and where the
 *  results go. */
struct RunOptions
{
    PlanOptions plan;
    ExecOptions exec;
    std::string jsonPath;        ///< --json (empty: no file)
    std::string traceEventsPath; ///< --trace-events (empty: no file)
};

/** One command-line flag. */
struct Flag
{
    const char *section; ///< usage heading the flag is listed under
    const char *name;    ///< the flag itself, e.g. --samples
    const char *value;   ///< value placeholder ("N"); null for a switch
    const char *help;    ///< one-line description
    /** Apply the flag; @p text is its value (null for a switch).
     *  @return an error message, empty on success. */
    std::function<std::string(const char *text)> apply;
};

/** A flag without a value. */
Flag switchFlag(const char *section, const char *name, const char *help,
                std::function<void()> set);

/** A flag whose value is a whole number in [@p min, @p max]. */
Flag numberFlag(const char *section, const char *name, const char *value,
                const char *help, std::uint64_t min, std::uint64_t max,
                std::function<void(std::uint64_t)> set);

/** A flag with a text value; @p set returns an error, empty if valid. */
Flag textFlag(const char *section, const char *name, const char *value,
              const char *help,
              std::function<std::string(const std::string &)> set);

/** A flag whose text value is stored in @p dst (which must outlive
 *  the flag). */
Flag stringFlag(const char *section, const char *name, const char *value,
                const char *help, std::string &dst);

/**
 * The single number parser behind every numeric flag: decimal digits
 * only (no sign, no space, no trailing characters), within
 * [@p min, @p max]. @return the value, or nothing when @p text is not
 * such a number.
 */
std::optional<std::uint64_t> parseNumber(std::string_view text,
                                         std::uint64_t min,
                                         std::uint64_t max);

/** @return the error for a @p text that parseNumber(@p text, @p min,
 *  @p max) rejected, naming @p what and the text: "--scale '-1':
 *  expected a whole number in [1, 4294967295]". */
std::string numberComplaint(std::string_view what, std::string_view text,
                            std::uint64_t min, std::uint64_t max);

/**
 * @return the run flags, bound to @p o (applying one sets its field of
 * @p o, so @p o must outlive the list).
 * @param simulating false for a front end that runs no simulation: it
 *        gets only the flags that pick the workloads (--scale,
 *        --footprint, --quick), so the others fail loudly instead of
 *        being ignored
 */
std::vector<Flag> runFlags(RunOptions &o, bool simulating = true);

/** Apply @p argv[1..] through @p flags in order. @return an error
 *  message naming the offending flag, empty on success. */
std::string parseFlags(int argc, const char *const *argv,
                       const std::vector<Flag> &flags);

/** @return the usage text of @p flags: one line per flag, grouped
 *  under their section headings. */
std::string flagUsage(const std::vector<Flag> &flags);

/** Print @p synopsis, the usage of @p flags and, when non-empty,
 *  @p error to stderr, then exit 2. */
[[noreturn]] void usageExit(const std::string &synopsis,
                            const std::vector<Flag> &flags,
                            const std::string &error = std::string());

/**
 * The cross-flag checks of a plan run: --verify with --samples is
 * fatal, as is --telemetry without --json (telemetry has no other
 * output); --samples over --checkpoint, observability on a sampled
 * run and --trace-events in an SDV_OBS=OFF build warn.
 */
void checkRunOptions(const RunOptions &o);

/** Write the flight-recorder traces of @p outcomes to @p path (plan
 *  order, see traceSources) and print a one-line summary; fatal when
 *  the file cannot be written. */
void writeTraceEvents(const std::string &path,
                      const std::vector<RunOutcome> &outcomes);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_OPTIONS_HH
