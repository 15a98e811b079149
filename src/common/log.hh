/**
 * @file
 * gem5-style status/error reporting: panic() for simulator bugs, fatal()
 * for user/configuration errors, warn() for survivable conditions.
 */

#ifndef SDV_COMMON_LOG_HH
#define SDV_COMMON_LOG_HH

#include <cstdint>
#include <source_location>
#include <sstream>
#include <string>

#include "common/types.hh"

namespace sdv {

namespace detail {

/** Concatenate a parameter pack through an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/**
 * The first argument of panic() and fatal(): the message's leading
 * string literal, tagged with the caller's source location. The
 * defaulted std::source_location is evaluated where the literal is
 * converted, which is the call site (for sdv_assert, the line that
 * invokes the macro); evaluated inside the variadic template body it
 * would name this header instead. Two pointers and no string: an
 * inlined sdv_assert costs its hot caller no more than before.
 */
struct LocatedMessage
{
    LocatedMessage(
        const char *first,
        std::source_location where = std::source_location::current())
        : text(first), loc(where)
    {
    }

    const char *text;
    std::source_location loc;
};

/** Abort after printing a panic message (simulator bug). */
[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);

/** Exit(1) after printing a fatal message (user error). */
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);

/** Print a warning to stderr. */
void warnImpl(const std::string &msg);

/** Per-thread message tag: the emitting subsystem plus a live pointer
 *  to its simulated clock, prefixed to warn() output so messages from
 *  concurrent sweep workers stay attributable. */
struct LogContext
{
    const char *subsystem = nullptr;
    const Cycle *cycle = nullptr;
};

/** @return this thread's current log context. */
LogContext logContext();

/** Replace this thread's log context (null subsystem clears it). */
void setLogContext(const char *subsystem, const Cycle *cycle);

} // namespace detail

/**
 * RAII log tag: while alive, warn() from this thread is prefixed with
 * "[subsystem @cycle]". The cycle pointer must outlive
 * the scope (pass nullptr when no simulated clock applies).
 */
class ScopedLogContext
{
  public:
    ScopedLogContext(const char *subsystem, const Cycle *cycle)
        : prev_(detail::logContext())
    {
        detail::setLogContext(subsystem, cycle);
    }

    ~ScopedLogContext()
    {
        detail::setLogContext(prev_.subsystem, prev_.cycle);
    }

    ScopedLogContext(const ScopedLogContext &) = delete;
    ScopedLogContext &operator=(const ScopedLogContext &) = delete;

  private:
    detail::LogContext prev_;
};

/**
 * Report an internal simulator bug and abort. Use when a condition can
 * only arise from broken sdv code, never from user input.
 */
template <typename... Args>
[[noreturn]] void
panic(detail::LocatedMessage msg, Args &&...args)
{
    detail::panicImpl(detail::concat(msg.text, std::forward<Args>(args)...),
                      msg.loc.file_name(), int(msg.loc.line()));
}

/**
 * Report an unrecoverable user error (bad configuration, malformed
 * program) and exit.
 */
template <typename... Args>
[[noreturn]] void
fatal(detail::LocatedMessage msg, Args &&...args)
{
    detail::fatalImpl(detail::concat(msg.text, std::forward<Args>(args)...),
                      msg.loc.file_name(), int(msg.loc.line()));
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Panic unless a condition holds. */
#define sdv_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::sdv::panic("assertion failed: " #cond " ", ##__VA_ARGS__);    \
        }                                                                   \
    } while (0)

} // namespace sdv

#endif // SDV_COMMON_LOG_HH
