#include "util/parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/log.hpp"

namespace gt {

std::string_view trim(std::string_view s) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const std::size_t first = s.find_first_not_of(kSpace);
  if (first == std::string_view::npos) return {};
  return s.substr(first, s.find_last_not_of(kSpace) - first + 1);
}

namespace {

/// from_chars over the whole of `text`, or nullopt.
template <typename T>
std::optional<T> whole(std::string_view text) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || end != last) return std::nullopt;
  return v;
}

template <typename T>
std::optional<T> checked_env(const char* name,
                             std::optional<T> (*parse)(std::string_view, T, T),
                             T lo, T hi, std::string_view expected) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return std::nullopt;
  const std::optional<T> v = parse(text, lo, hi);
  if (!v)
    log_warn("ignoring invalid ", name, "='", text, "' (expected ", expected,
             "); using the default");
  return v;
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi) {
  // from_chars takes no sign for an unsigned type, so "-1" cannot wrap.
  const std::optional<std::uint64_t> v = whole<std::uint64_t>(trim(text));
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

std::optional<double> parse_real(std::string_view text, double lo,
                                 double hi) {
  text = trim(text);
  // from_chars takes no leading '+' ("+-1" must still fail) and no hex in
  // general format; "inf" and "nan" parse but are caught as non-finite.
  if (text.size() > 1 && text[0] == '+' && text[1] != '-')
    text.remove_prefix(1);
  const std::optional<double> v = whole<double>(text);
  if (!v || !std::isfinite(*v) || *v < lo || *v > hi) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi,
                                      std::string_view expected) {
  return checked_env<std::uint64_t>(name, parse_uint, lo, hi, expected);
}

std::optional<double> env_real(const char* name, double lo, double hi,
                               std::string_view expected) {
  return checked_env<double>(name, parse_real, lo, hi, expected);
}

FlagSetter into(double* out, double lo, double hi) {
  return [out, lo, hi](std::string_view v) {
    const std::optional<double> x = parse_real(v, lo, hi);
    if (x) *out = *x;
    return x.has_value();
  };
}

FlagSetter into(std::string* out) {
  return [out](std::string_view v) {
    *out = v;
    return true;
  };
}

ParsedFlags parse_flags(std::span<const std::string> args,
                        std::span<const Flag> table) {
  ParsedFlags out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      out.positionals.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto flag =
        std::find_if(table.begin(), table.end(),
                     [&](const Flag& f) { return f.name == name; });
    if (flag == table.end()) {
      out.error = arg + ": unknown flag";
      return out;
    }
    out.seen.insert(flag->name);
    if (!flag->set) {
      if (eq != std::string::npos) {
        out.error = arg + ": " + name + " takes no value";
        return out;
      }
      *flag->on = true;
      continue;
    }
    if (eq == std::string::npos && i + 1 == args.size()) {
      out.error = name + ": missing value (expected " +
                  std::string(flag->expected) + ")";
      return out;
    }
    const std::string value = eq == std::string::npos ? args[++i]
                                                       : arg.substr(eq + 1);
    try {
      if (flag->set(value)) continue;
      out.error = name + "=" + value + ": expected " +
                  std::string(flag->expected);
    } catch (const std::invalid_argument& e) {
      out.error = name + "=" + value + ": " + e.what();
    }
    return out;
  }
  return out;
}

}  // namespace gt
