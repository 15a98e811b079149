/**
 * @file
 * Text output for the result writers (sweep and bench JSON, trace
 * files, fuzz repros): printf-style appends to a string, and a file
 * write that reports a failure part way, as on a full disk, instead of
 * a written file.
 */

#ifndef SDV_COMMON_TEXT_FILE_HH
#define SDV_COMMON_TEXT_FILE_HH

#include <string>

namespace sdv {

/** Append @p fmt, formatted printf-style, to @p out (any length). */
[[gnu::format(printf, 2, 3)]] void appendf(std::string &out,
                                           const char *fmt, ...);

/**
 * Replace the file at @p path with @p text.
 * @return true only when the file opened, all of @p text was written
 *         and closing it (which flushes the stdio buffer) succeeded
 */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace sdv

#endif // SDV_COMMON_TEXT_FILE_HH
