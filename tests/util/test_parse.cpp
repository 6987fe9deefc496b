#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace gt {
namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

TEST(ParseUint, AcceptsWholeDecimalsWithSurroundingWhitespace) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("42"), 42u);
  EXPECT_EQ(parse_uint(" 7 "), 7u);
  EXPECT_EQ(parse_uint("\t12\n"), 12u);
  EXPECT_EQ(parse_uint("007"), 7u);
  EXPECT_EQ(parse_uint("18446744073709551615"), kMaxU64);
}

TEST(ParseUint, RejectsEverythingElse) {
  for (const char* bad :
       {"", "   ", "-1", "-0", "+1", "8x", "4 threads", "1.5", "1e3", "0x10",
        "abc", "18446744073709551616", "99999999999999999999"})
    EXPECT_FALSE(parse_uint(bad).has_value()) << "'" << bad << "'";
}

TEST(ParseUint, EnforcesTheInclusiveRange) {
  EXPECT_EQ(parse_uint("1", 1, 64), 1u);
  EXPECT_EQ(parse_uint("64", 1, 64), 64u);
  EXPECT_FALSE(parse_uint("0", 1, 64).has_value());
  EXPECT_FALSE(parse_uint("65", 1, 64).has_value());
}

TEST(ParseReal, AcceptsDecimalForms) {
  EXPECT_EQ(parse_real("1.5"), 1.5);
  EXPECT_EQ(parse_real("-2"), -2.0);
  EXPECT_EQ(parse_real("+3"), 3.0);
  EXPECT_EQ(parse_real(".5"), 0.5);
  EXPECT_EQ(parse_real("5."), 5.0);
  EXPECT_EQ(parse_real("1e3"), 1000.0);
  EXPECT_EQ(parse_real("1E-2"), 0.01);
  EXPECT_EQ(parse_real(" 2.5\t"), 2.5);
}

TEST(ParseReal, RejectsNonFiniteAndMalformedText) {
  for (const char* bad :
       {"", " ", "inf", "-inf", "+inf", "infinity", "nan", "NAN", "nan(1)",
        "1e400", "-1e400", "0x1p3", "1e", "e5", ".", "+", "-", "+-1", "--1",
        "++1", "1.5x", "1,5", "1 2"})
    EXPECT_FALSE(parse_real(bad).has_value()) << "'" << bad << "'";
}

TEST(ParseReal, EnforcesTheInclusiveRange) {
  EXPECT_EQ(parse_real("0", 0.0), 0.0);
  EXPECT_FALSE(parse_real("-0.5", 0.0).has_value());
  EXPECT_FALSE(parse_real("0", std::numeric_limits<double>::denorm_min())
                   .has_value());
  EXPECT_FALSE(parse_real("100.5", 0.0, 100.0).has_value());
}

TEST(ParseEnv, ValidValuesParseAndInvalidOnesFallBack) {
  ASSERT_EQ(setenv("GT_PARSE_TEST_U", " 12 ", 1), 0);
  ASSERT_EQ(setenv("GT_PARSE_TEST_R", "2.5", 1), 0);
  EXPECT_EQ(env_uint("GT_PARSE_TEST_U", 1, kMaxU64, "an integer"), 12u);
  EXPECT_EQ(env_real("GT_PARSE_TEST_R", 0.0, 10.0, "a number"), 2.5);
  ASSERT_EQ(setenv("GT_PARSE_TEST_U", "-1", 1), 0);
  ASSERT_EQ(setenv("GT_PARSE_TEST_R", "nan", 1), 0);
  EXPECT_FALSE(env_uint("GT_PARSE_TEST_U", 1, kMaxU64, "an integer"));
  EXPECT_FALSE(env_real("GT_PARSE_TEST_R", 0.0, 10.0, "a number"));
  ASSERT_EQ(setenv("GT_PARSE_TEST_U", "", 1), 0);
  unsetenv("GT_PARSE_TEST_R");
  EXPECT_FALSE(env_uint("GT_PARSE_TEST_U", 1, kMaxU64, "an integer"));
  EXPECT_FALSE(env_real("GT_PARSE_TEST_R", 0.0, 10.0, "a number"));
  unsetenv("GT_PARSE_TEST_U");
}

struct Cli {
  std::uint32_t workers = 1;
  std::uint8_t small = 0;
  double rate = 1.0;
  std::string out;
  int mode = 0;
  bool quick = false;
  bool help = false;

  ParsedFlags parse(std::vector<std::string> args) {
    const Flag flags[] = {
        {"--workers", into(&workers, 1, 1024), "a count in [1, 1024]"},
        {"--small", into(&small), "a byte"},
        {"--rate", into(&rate, 0.0), "a finite rate >= 0"},
        {"--out", into(&out), "a path"},
        {"--mode",
         into(&mode,
              [](const std::string& v) {
                if (v == "a") return 1;
                throw std::invalid_argument("unknown mode '" + v + "'");
              }),
         "a"},
        {"--quick", &quick},
        {"-h", &help},
    };
    return parse_flags(args, flags);
  }
};

TEST(FlagTable, AcceptsBothValueFormsAndCollectsPositionals) {
  Cli cli;
  const ParsedFlags p = cli.parse({"products", "--workers=4", "--rate", "2.5",
                                   "--quick", "GCN", "--out", "-", "-"});
  ASSERT_TRUE(p.ok()) << p.error;
  EXPECT_EQ(cli.workers, 4u);
  EXPECT_EQ(cli.rate, 2.5);
  EXPECT_TRUE(cli.quick);
  EXPECT_EQ(cli.out, "-");  // a value may look like a flag
  EXPECT_EQ(p.positionals, (std::vector<std::string>{"products", "GCN", "-"}));
  EXPECT_TRUE(p.has("--workers"));
  EXPECT_TRUE(p.has("--quick"));
  EXPECT_FALSE(p.has("--small"));
}

TEST(FlagTable, LastOccurrenceWinsAndEmptyStringsAreValues) {
  Cli cli;
  ASSERT_TRUE(cli.parse({"--workers=2", "--workers", "3", "--out="}).ok());
  EXPECT_EQ(cli.workers, 3u);
  EXPECT_EQ(cli.out, "");
}

TEST(FlagTable, DiagnosticsNameTheFlagAndTheExpectedValue) {
  const auto error = [](std::vector<std::string> args) {
    Cli cli;
    return cli.parse(std::move(args)).error;
  };
  EXPECT_EQ(error({"--workers=abc"}),
            "--workers=abc: expected a count in [1, 1024]");
  EXPECT_EQ(error({"--workers", "-1"}),
            "--workers=-1: expected a count in [1, 1024]");
  EXPECT_EQ(error({"--workers=0"}),
            "--workers=0: expected a count in [1, 1024]");
  EXPECT_EQ(error({"--small=256"}), "--small=256: expected a byte");
  EXPECT_EQ(error({"--rate=nan"}), "--rate=nan: expected a finite rate >= 0");
  EXPECT_EQ(error({"--wrkers=4"}), "--wrkers=4: unknown flag");
  EXPECT_EQ(error({"-x"}), "-x: unknown flag");
  EXPECT_EQ(error({"--quick=1"}), "--quick=1: --quick takes no value");
  EXPECT_EQ(error({"--workers"}),
            "--workers: missing value (expected a count in [1, 1024])");
  EXPECT_EQ(error({"--mode=b"}), "--mode=b: unknown mode 'b'");
}

TEST(FlagTable, StopsAtTheFirstBadArgument) {
  Cli cli;
  const ParsedFlags p = cli.parse({"--workers=2", "--nope", "--workers=3"});
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(cli.workers, 2u);
  EXPECT_FALSE(p.has("--nope"));
}

TEST(FlagTable, ShortNamesAreRows) {
  Cli cli;
  ASSERT_TRUE(cli.parse({"-h", "--mode", "a"}).ok());
  EXPECT_TRUE(cli.help);
  EXPECT_EQ(cli.mode, 1);
}

TEST(Trim, StripsAsciiWhitespaceOnly) {
  EXPECT_EQ(trim(" \t a b \r\n"), "a b");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

}  // namespace
}  // namespace gt
