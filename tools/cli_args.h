// Strict flag-value parsing shared by ctsim_cli and ctsimd.
//
// A malformed value is a usage error (exit 2) raised while the flags
// are parsed, before anything is loaded, so a typo'd value can never
// silently run a default: `--workers abc` is an error, not 0.
#ifndef CTSIM_TOOLS_CLI_ARGS_H
#define CTSIM_TOOLS_CLI_ARGS_H

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace ctsim::cli {

[[noreturn]] inline void usage_error(const std::string& flag, const char* value,
                                     const char* expected) {
    std::fprintf(stderr, "invalid value '%s' for %s (expected %s)\n", value, flag.c_str(),
                 expected);
    std::exit(2);
}

inline double number_arg(const std::string& flag, const char* s) {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v))
        usage_error(flag, s, "a finite number");
    return v;
}

inline long integer_arg(const std::string& flag, const char* s, long lo, long hi) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE || v < lo || v > hi)
        usage_error(flag, s, "an integer in range");
    return v;
}

}  // namespace ctsim::cli

#endif  // CTSIM_TOOLS_CLI_ARGS_H
