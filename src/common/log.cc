#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

namespace sdv {
namespace detail {

namespace {

bool quietFlag = false;
thread_local LogContext threadContext;

/** Format the "[subsystem @cycle] " prefix of the active context. */
std::string
contextPrefix()
{
    if (!threadContext.subsystem)
        return "";
    std::string out = "[";
    out += threadContext.subsystem;
    if (threadContext.cycle) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " @%llu",
                      static_cast<unsigned long long>(*threadContext.cycle));
        out += buf;
    }
    out += "] ";
    return out;
}

} // namespace

void
panicImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quietFlag)
        std::fprintf(stderr, "warn: %s%s\n", contextPrefix().c_str(),
                     msg.c_str());
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

LogContext
logContext()
{
    return threadContext;
}

void
setLogContext(const char *subsystem, const Cycle *cycle)
{
    threadContext.subsystem = subsystem;
    threadContext.cycle = subsystem ? cycle : nullptr;
}

} // namespace detail
} // namespace sdv
