#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "json_checker.hpp"
#include "obs/json.hpp"

namespace gt::obs {
namespace {

BenchReporter& fresh_global() {
  BenchReporter& r = BenchReporter::global();
  r.clear();
  return r;
}

BenchRow row(const std::string& metric, const std::string& dataset,
             const std::string& framework, double paper, double measured,
             const std::string& unit = "x") {
  BenchRow r;
  r.metric = metric;
  r.dataset = dataset;
  r.framework = framework;
  r.unit = unit;
  r.paper = paper;
  r.measured = measured;
  return r;
}

TEST(JsonParser, AcceptsValuesAndReportsErrors) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(R"({"a":[1,2.5,-3e2],"b":"x\"y","c":null})", &v,
                         &err))
      << err;
  EXPECT_TRUE(v.is_object());
  ASSERT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_EQ(v.string_at("b"), "x\"y");
  EXPECT_TRUE(v.at("c").is_null());
  EXPECT_TRUE(v.at("missing").is_null());

  EXPECT_FALSE(json_parse("{\"a\":}", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(json_parse("[1,2] trailing", &v, &err));
}

TEST(JsonParser, NestingPastTheDepthCapIsAParseError) {
  auto nested = [](std::size_t depth) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += i % 2 == 0 ? "[" : "{\"k\":";
    s += "1";
    for (std::size_t i = depth; i-- > 0;) s += i % 2 == 0 ? "]" : "}";
    return s;
  };
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(nested(kJsonMaxDepth), &v, &err)) << err;
  EXPECT_TRUE(v.is_array());

  EXPECT_FALSE(json_parse(nested(kJsonMaxDepth + 1), &v, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  EXPECT_TRUE(v.is_null());
}

TEST(BenchReporter, RowsInheritContextFigure) {
  BenchReporter& r = fresh_global();
  r.set_context("Fig X", "a test figure");
  r.add_row(row("speedup", "products", "Dynamic-GT", 2.0, 1.9));
  r.add_claim("overall speedup", 3.0, 2.8, "x");
  auto rows = r.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].figure, "Fig X");
  EXPECT_EQ(rows[1].figure, "Fig X");
  EXPECT_EQ(rows[1].metric, "overall speedup");
  // The key identifies a row across runs.
  EXPECT_NE(rows[0].key(), rows[1].key());
  r.clear();
  EXPECT_EQ(r.row_count(), 0u);
}

TEST(BenchReporter, JsonRoundTripPreservesRowsAndMeta) {
  BenchReporter& r = fresh_global();
  r.set_binary("unit_test");
  r.set_iterations(3);
  r.set_context("Fig Y", "round-trip \"figure\"");
  r.add_row(row("latency", "wiki-talk", "PyG-MT", 100.0, 97.5, "us"));
  r.add_row(row("cache x", "products", "", 0.0, 1.25));

  std::ostringstream os;
  r.write_json(os, TraceAnalysis{});
  const std::string json = os.str();
  r.clear();
  EXPECT_TRUE(testing::JsonChecker(json).valid()) << json;

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(json, &doc, &err)) << err;
  EXPECT_DOUBLE_EQ(doc.number_at("schema_version"),
                   kBenchReportSchemaVersion);
  EXPECT_EQ(doc.at("figures").string_at("Fig Y"), "round-trip \"figure\"");

  BenchReport parsed;
  ASSERT_TRUE(BenchReport::from_json(doc, &parsed, &err)) << err;
  EXPECT_EQ(parsed.schema_version, kBenchReportSchemaVersion);
  EXPECT_EQ(parsed.meta.binary, "unit_test");
  EXPECT_EQ(parsed.meta.iterations, 3);
  ASSERT_EQ(parsed.rows.size(), 2u);
  EXPECT_EQ(parsed.rows[0].figure, "Fig Y");
  EXPECT_EQ(parsed.rows[0].metric, "latency");
  EXPECT_EQ(parsed.rows[0].unit, "us");
  EXPECT_DOUBLE_EQ(parsed.rows[0].paper, 100.0);
  EXPECT_DOUBLE_EQ(parsed.rows[0].measured, 97.5);
  EXPECT_EQ(parsed.rows[1].framework, "");
  EXPECT_DOUBLE_EQ(parsed.rows[1].measured, 1.25);
  EXPECT_TRUE(parsed.trace_analysis.is_object());
}

TEST(BenchReporter, WriteIsByteStable) {
  BenchReporter& r = fresh_global();
  r.set_context("Fig Z", "stability");
  r.add_row(row("m", "d", "", 1.0, 1.5));
  std::ostringstream a, b;
  r.write_json(a, TraceAnalysis{});
  r.write_json(b, TraceAnalysis{});
  r.clear();
  EXPECT_EQ(a.str(), b.str());
}

TEST(BenchReport, RejectsWrongSchemaVersion) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(json_parse(R"({"schema_version":999,"rows":[]})", &doc, &err));
  BenchReport parsed;
  EXPECT_FALSE(BenchReport::from_json(doc, &parsed, &err));
  EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

}  // namespace
}  // namespace gt::obs
