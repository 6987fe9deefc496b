// One checked reader for every number and flag that enters the program
// from outside: command-line arguments and GT_* environment variables.
//
// Numbers are read whole: surrounding ASCII whitespace is trimmed, and
// anything else that is not the number ("8x", "-1" for an unsigned, "inf",
// "nan") or lies outside [lo, hi] gives nullopt, never a best-effort prefix
// or a wrapped negative. Command-line tools print the flag table's
// diagnostic and exit 2 before any output; library code cannot exit, so
// its environment reads warn and keep the default.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gt {

/// `s` without leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Whole-text unsigned decimal in [lo, hi].
std::optional<std::uint64_t> parse_uint(
    std::string_view text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// Whole-text finite decimal real (sign, fraction and exponent optional)
/// in [lo, hi].
std::optional<double> parse_real(
    std::string_view text, double lo = -std::numeric_limits<double>::max(),
    double hi = std::numeric_limits<double>::max());

/// Environment variable `name` through parse_uint / parse_real. Unset or
/// empty gives nullopt; so does an invalid value, after a warning that
/// names the variable and `expected`.
std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi,
                                      std::string_view expected);
std::optional<double> env_real(const char* name, double lo, double hi,
                               std::string_view expected);

/// Stores a flag's value. Returning false rejects it with the row's
/// `expected` text; a thrown std::invalid_argument rejects it with its
/// own message.
using FlagSetter = std::function<bool(std::string_view)>;

/// One row of a flag table: a switch (sets *on, takes no value) or a flag
/// whose value goes to `set`.
struct Flag {
  Flag(std::string_view name, bool* on) : name(name), on(on) {}
  Flag(std::string_view name, FlagSetter set, std::string_view expected)
      : name(name), set(std::move(set)), expected(expected) {}

  std::string_view name;  ///< with its dashes: "--workers", "-h"
  bool* on = nullptr;
  FlagSetter set;
  std::string_view expected;  ///< a valid value, for the diagnostic
};

/// Setters for the common targets: an integer in [lo, hi] that fits in T,
/// a finite real in [lo, hi], any string, or whatever `parse` returns.
template <std::unsigned_integral T>
FlagSetter into(T* out, std::uint64_t lo = 0,
                std::uint64_t hi = std::numeric_limits<T>::max()) {
  hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max());
  return [out, lo, hi](std::string_view v) {
    const std::optional<std::uint64_t> n = parse_uint(v, lo, hi);
    if (n) *out = static_cast<T>(*n);
    return n.has_value();
  };
}
FlagSetter into(double* out, double lo = -std::numeric_limits<double>::max(),
                double hi = std::numeric_limits<double>::max());
FlagSetter into(std::string* out);
template <typename T, std::invocable<std::string> Parse>
FlagSetter into(T* out, Parse parse) {
  return [out, parse](std::string_view v) {
    *out = parse(std::string(v));
    return true;
  };
}

struct ParsedFlags {
  std::vector<std::string> positionals;
  std::set<std::string_view> seen;  ///< table names given at least once
  std::string error;  ///< "--x=v: expected …" diagnostic; empty on success

  bool ok() const { return error.empty(); }
  bool has(std::string_view name) const { return seen.count(name) != 0; }
};

/// Applies `args` (argv without the program name) to `table`, accepting
/// `--x=v` and `--x v`. An argument that starts with '-' must name a row;
/// the rest are positionals. Stops at the first bad argument.
ParsedFlags parse_flags(std::span<const std::string> args,
                        std::span<const Flag> table);

}  // namespace gt
