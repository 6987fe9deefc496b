// Fixed-seed mutation fuzzer over every parser that reads outside input:
// the number parsers against a reference oracle, the flag table against a
// reference walk of the same grammar, and FaultPlan::parse / json_parse
// for crash-freedom and their error contracts. Iteration counts are fixed
// (no clock), so a run is reproducible and takes well under 2 s in
// Release; the sanitizer CI jobs run it like every other test.
#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace gt {
namespace {

constexpr int kIterations = 100000;

/// Random edits of a seed string: insert, delete, replace or duplicate
/// bytes drawn mostly from `alphabet` (which covers the grammar's own
/// characters), occasionally any byte at all.
std::string mutate(std::string s, Xoshiro256& rng,
                   std::string_view alphabet) {
  const auto pick = [&]() -> char {
    if (rng.uniform(16) == 0) return static_cast<char>(rng.uniform(256));
    return alphabet[rng.uniform(alphabet.size())];
  };
  const std::uint64_t edits = 1 + rng.uniform(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng.uniform(s.size() + 1);
    const std::uint64_t op = rng.uniform(4);
    if (op == 0) {
      s.insert(at, 1, pick());
    } else if (at < s.size()) {
      if (op == 1) s.erase(at, 1);
      if (op == 2) s[at] = pick();
      if (op == 3) s.insert(at, s.substr(at, 1 + rng.uniform(8)));
    }
  }
  return s;
}

std::string_view ref_trim(std::string_view s) {
  const auto space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

/// Digit-by-digit reference for parse_uint.
std::optional<std::uint64_t> ref_uint(std::string_view s, std::uint64_t lo,
                                      std::uint64_t hi) {
  s = ref_trim(s);
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

/// The decimal grammar [+-] digits [. digits] [(e|E) [+-] digits] with at
/// least one mantissa digit, valued by strtod.
bool ref_real_grammar(std::string_view s) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  std::size_t i = 0, mantissa = 0;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  for (; i < s.size() && digit(s[i]); ++i) ++mantissa;
  if (i < s.size() && s[i] == '.')
    for (++i; i < s.size() && digit(s[i]); ++i) ++mantissa;
  if (mantissa == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (i == s.size() || !digit(s[i])) return false;
    while (i < s.size() && digit(s[i])) ++i;
  }
  return i == s.size();
}

TEST(ParseFuzz, UintMatchesTheDigitLoopReference) {
  Xoshiro256 rng(0x5eed01);
  const std::vector<std::string> seeds = {
      "0", "42", " 7 ", "18446744073709551615", "18446744073709551616",
      "-1", "8x", "1e3", "\t12\n"};
  for (int it = 0; it < kIterations; ++it) {
    const std::string text =
        mutate(seeds[rng.uniform(seeds.size())], rng, "0123456789 -+x.e\t");
    const std::uint64_t lo = rng.uniform(4) == 0 ? rng.uniform(100) : 0;
    const std::uint64_t hi = rng.uniform(4) == 0 ? lo + rng.uniform(1000)
                                                 : UINT64_MAX;
    ASSERT_EQ(parse_uint(text, lo, hi), ref_uint(text, lo, hi))
        << "'" << text << "' in [" << lo << ", " << hi << "]";
  }
}

TEST(ParseFuzz, RealMatchesTheGrammarAndStrtod) {
  Xoshiro256 rng(0x5eed02);
  const std::vector<std::string> seeds = {
      "1.5", "-2", "+3", ".5", "5.", "1e3", "1E-2", " 2.5 ", "inf", "nan",
      "1e308", "1e-308", "0x1p3", "4000"};
  for (int it = 0; it < kIterations; ++it) {
    const std::string text =
        mutate(seeds[rng.uniform(seeds.size())], rng, "0123456789.eE+- infax");
    const std::optional<double> got = parse_real(text);
    const std::string_view body = ref_trim(text);
    std::optional<double> want;
    bool underflow = false;
    if (ref_real_grammar(body)) {
      const std::string copy(body);
      errno = 0;
      const double v = std::strtod(copy.c_str(), nullptr);
      // A nonzero mantissa that lands below DBL_MIN is the one band where
      // libraries may disagree on "out of range"; values must still match.
      const std::string_view mant = body.substr(0, body.find_first_of("eE"));
      underflow = std::fabs(v) < DBL_MIN &&
                  mant.find_first_of("123456789") != std::string_view::npos;
      if (std::isfinite(v) && errno != ERANGE) want = v;
    }
    if (got && want) {
      ASSERT_EQ(std::memcmp(&*got, &*want, sizeof(double)), 0) << text;
    } else if (!underflow) {
      ASSERT_EQ(got.has_value(), want.has_value()) << "'" << text << "'";
    }
    if (got) {
      ASSERT_TRUE(std::isfinite(*got)) << text;
    }
  }
}

TEST(ParseFuzz, FlagTableAgreesWithAReferenceWalk) {
  Xoshiro256 rng(0x5eed03);
  const std::vector<std::string> names = {"--count", "--rate", "--path",
                                          "--mode", "--on", "-h"};
  const std::vector<std::string> values = {"4", "0", "-1", "2.5", "nan",
                                           "a", "b", "", "x=y", "--count"};
  for (int it = 0; it < kIterations / 4; ++it) {
    std::vector<std::string> args;
    const std::uint64_t n = rng.uniform(6);
    for (std::uint64_t k = 0; k < n; ++k) {
      std::string name = names[rng.uniform(names.size())];
      if (rng.uniform(8) == 0) name = mutate(name, rng, "-cnoutpa=h");
      std::string value = values[rng.uniform(values.size())];
      if (rng.uniform(4) == 0) value = mutate(value, rng, "0123456789.-nab");
      switch (rng.uniform(4)) {
        case 0: args.push_back(name + "=" + value); break;
        case 1: args.push_back(name); args.push_back(value); break;
        case 2: args.push_back(name); break;
        case 3: args.push_back(value); break;
      }
    }

    std::uint32_t count = 0;
    double rate = 0.0;
    std::string path, mode;
    bool on = false, help = false;
    const Flag flags[] = {
        {"--count", into(&count, 1, 100), "a count"},
        {"--rate", into(&rate, 0.0), "a rate"},
        {"--path", into(&path), "a path"},
        {"--mode",
         into(&mode,
              [](const std::string& v) {
                if (v != "a" && v != "b")
                  throw std::invalid_argument("bad mode '" + v + "'");
                return v;
              }),
         "a|b"},
        {"--on", &on},
        {"-h", &help},
    };
    ParsedFlags got;
    ASSERT_NO_THROW(got = parse_flags(args, flags));

    // Reference walk of the same grammar, checking each value with the
    // number parsers directly.
    std::vector<std::string> positionals;
    bool ok = true;
    for (std::size_t i = 0; ok && i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a.size() < 2 || a[0] != '-') {
        positionals.push_back(a);
        continue;
      }
      const std::size_t eq = a.find('=');
      const std::string name = a.substr(0, eq);
      if (name == "--on" || name == "-h") {
        ok = eq == std::string::npos;
        continue;
      }
      if (name != "--count" && name != "--rate" && name != "--path" &&
          name != "--mode") {
        ok = false;
        continue;
      }
      if (eq == std::string::npos && i + 1 == args.size()) {
        ok = false;
        continue;
      }
      const std::string v =
          eq == std::string::npos ? args[++i] : a.substr(eq + 1);
      if (name == "--count") ok = parse_uint(v, 1, 100).has_value();
      if (name == "--rate") ok = parse_real(v, 0.0).has_value();
      if (name == "--mode") ok = v == "a" || v == "b";
    }
    ASSERT_EQ(got.ok(), ok) << got.error;
    if (ok) {
      ASSERT_EQ(got.positionals, positionals);
      if (got.has("--count")) {
        ASSERT_TRUE(count >= 1 && count <= 100);
      }
      if (got.has("--rate")) {
        ASSERT_TRUE(std::isfinite(rate) && rate >= 0.0);
      }
      ASSERT_EQ(on, got.has("--on"));
    }
  }
}

TEST(ParseFuzz, FaultPlanParseOnlyReturnsOrThrowsInvalidArgument) {
  Xoshiro256 rng(0x5eed04);
  const std::vector<std::string> seeds = {
      "preproc.sample@batch=1",
      "gpusim.alloc@batch=3:kind=oom;preproc.reindex@batch=0:layer=1",
      "gpusim.kernel@batch=5:times=2:kind=abort",
      "transfer@batch=18446744073709551615:always",
      " ; preproc.sample@batch=7:times=inf ; "};
  for (int it = 0; it < kIterations; ++it) {
    const std::string spec = mutate(seeds[rng.uniform(seeds.size())], rng,
                                    "@=:;. 0123456789abcdefgiklmnoprstuy");
    try {
      (void)fault::FaultPlan::parse(spec);
    } catch (const std::invalid_argument&) {
    } catch (...) {
      FAIL() << "unexpected exception type for '" << spec << "'";
    }
  }
}

TEST(ParseFuzz, JsonParseOnlyReturnsTrueOrFalse) {
  Xoshiro256 rng(0x5eed05);
  const std::vector<std::string> seeds = {
      R"({"a": [1, 2.5e3, -0.1], "b": {"c": "dé\n"}, "e": null})",
      R"([true, false, {"k": [[], {}]}, "x\"y"])", "-1.5E+10", R"("\ud83d")",
      "{}"};
  for (int it = 0; it < kIterations; ++it) {
    const std::string text = mutate(seeds[rng.uniform(seeds.size())], rng,
                                    "{}[]\",:.-+eE0123456789 \\untrfalse");
    obs::JsonValue v;
    std::string err;
    ASSERT_NO_THROW((void)obs::json_parse(text, &v, &err)) << text;
  }
}

TEST(ParseFuzz, JsonParseRejectsDeepNestingWithoutOverflowingTheStack) {
  // The parser recurses once per level: without the depth cap, documents
  // like these overflow the stack.
  constexpr std::size_t kDepth = 200000;
  std::string arrays(kDepth, '[');
  arrays.append(kDepth, ']');
  std::string objects;
  for (std::size_t i = 0; i < kDepth; ++i) objects += "{\"k\":";
  objects += "0";
  objects.append(kDepth, '}');
  for (const std::string* text : {&arrays, &objects}) {
    obs::JsonValue v;
    std::string err;
    EXPECT_FALSE(obs::json_parse(*text, &v, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace gt
