#include "common/text_file.hh"

#include <cstdarg>
#include <cstdio>

namespace sdv {

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    va_list again;
    va_copy(again, ap);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0 && std::size_t(n) < sizeof(buf)) {
        out.append(buf, std::size_t(n));
    } else if (n > 0) {
        // Too long for the stack buffer: format again in place.
        const std::size_t at = out.size();
        out.resize(at + std::size_t(n) + 1);
        std::vsnprintf(out.data() + at, std::size_t(n) + 1, fmt, again);
        out.resize(at + std::size_t(n));
    }
    va_end(again);
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    return wrote && closed;
}

} // namespace sdv
