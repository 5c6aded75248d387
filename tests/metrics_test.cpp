// Tests for the metrics module's machine-readable bench output: the
// schema-versioned BenchReport JSON round-trip and the bench_diff
// comparator's regression rules.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "metrics/bench_report.hpp"
#include "util/json.hpp"

namespace edgesim::metrics {
namespace {

Samples makeSamples(std::initializer_list<double> values) {
  Samples s;
  for (const double v : values) s.add(v);
  return s;
}

BenchReport makeReport() {
  BenchReport report("fig11_scaleup");
  report.setMeta("seed", "1");
  report.setMeta("cluster", "docker-egs");
  report.addSeries("nginx/docker-egs/total",
                   makeSamples({0.48, 0.51, 0.47, 0.52, 0.49}));
  report.addSeries("nginx/docker-egs/wait",
                   makeSamples({0.10, 0.11, 0.09}));
  report.addScalar("nginx/docker-egs/failures", 0.0);
  return report;
}

// ---------------------------------------------------- schema round-trip ----

TEST(BenchReport, JsonCarriesSchemaFields) {
  const BenchReport report = makeReport();
  const JsonValue json = report.toJson();
  EXPECT_EQ(json.stringOr("schema", ""), BenchReport::kSchemaName);
  EXPECT_EQ(json.numberOr("schema_version", -1), BenchReport::kSchemaVersion);
  EXPECT_EQ(json.stringOr("bench", ""), "fig11_scaleup");
  const JsonValue* meta = json.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->stringOr("seed", ""), "1");
  const JsonValue* series = json.find("series");
  ASSERT_NE(series, nullptr);
  const JsonValue* total = series->find("nginx/docker-egs/total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->numberOr("count", -1), 5);
  EXPECT_EQ(total->numberOr("median", -1), 0.49);
  EXPECT_EQ(total->numberOr("min", -1), 0.47);
  EXPECT_EQ(total->numberOr("max", -1), 0.52);
  ASSERT_TRUE(total->has("samples"));
  EXPECT_EQ(total->find("samples")->size(), 5u);
}

TEST(BenchReport, RoundTripsThroughDumpAndParse) {
  const BenchReport report = makeReport();
  const auto parsed = JsonValue::parse(report.toJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
  const auto back = BenchReport::fromJson(parsed.value());
  ASSERT_TRUE(back.ok()) << back.error().toString();
  EXPECT_EQ(back.value().name(), report.name());
  EXPECT_EQ(back.value().meta(), report.meta());
  ASSERT_EQ(back.value().series().size(), report.series().size());
  for (const auto& [name, stats] : report.series()) {
    const SeriesStats* other = back.value().findSeries(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(other->count, stats.count);
    EXPECT_EQ(other->median, stats.median);
    EXPECT_EQ(other->p95, stats.p95);
    EXPECT_EQ(other->samples, stats.samples);
  }
}

TEST(BenchReport, WriteAndReadFile) {
  const std::string path = ::testing::TempDir() + "bench_report_test.json";
  const BenchReport report = makeReport();
  ASSERT_TRUE(report.writeFile(path).ok());
  const auto back = BenchReport::fromFile(path);
  ASSERT_TRUE(back.ok()) << back.error().toString();
  EXPECT_EQ(back.value().name(), "fig11_scaleup");
  std::remove(path.c_str());
}

TEST(BenchReport, FromJsonRejectsWrongSchema) {
  JsonValue json = JsonValue::object();
  json.set("schema", "something-else");
  json.set("schema_version", 1);
  json.set("bench", "x");
  EXPECT_FALSE(BenchReport::fromJson(json).ok());
}

TEST(BenchReport, AddSeriesMapExportsAllSeries) {
  std::map<std::string, Samples> map;
  map["warm"].add(0.002);
  map["cold"].add(0.5);
  map["cold"].add(0.7);
  BenchReport report("x");
  report.addSeriesMap(map, "trace");
  const SeriesStats* warm = report.findSeries("trace/warm");
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->count, 1u);
  EXPECT_EQ(warm->median, 0.002);
  const SeriesStats* cold = report.findSeries("trace/cold");
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->count, 2u);
  EXPECT_EQ(report.findSeries("warm"), nullptr);  // only under the prefix
}

// ------------------------------------------------------- compareReports ----

TEST(CompareReports, AcceptsIdenticalReports) {
  const BenchReport report = makeReport();
  const auto result = compareReports(report, report);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.seriesCompared, 3u);
  EXPECT_TRUE(result.regressions.empty());
}

TEST(CompareReports, FlagsInjectedTwentyPercentMedianRegression) {
  const BenchReport baseline = makeReport();
  BenchReport candidate = makeReport();
  // Inject a 20% slowdown into one series; the default tolerance is 10%.
  candidate.addSeries("nginx/docker-egs/total",
                      makeSamples({0.576, 0.612, 0.564, 0.624, 0.588}));
  const auto result = compareReports(baseline, candidate);
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.regressions.empty());
  EXPECT_EQ(result.regressions.front().series, "nginx/docker-egs/total");
  EXPECT_EQ(result.regressions.front().metric, "median");
  EXPECT_NEAR(result.regressions.front().ratio(), 1.2, 1e-9);
  // The failure message names the regressed series.
  EXPECT_NE(result.regressions.front().toString().find(
                "nginx/docker-egs/total"),
            std::string::npos);
}

TEST(CompareReports, WithinToleranceIsNotARegression) {
  const BenchReport baseline = makeReport();
  BenchReport candidate = makeReport();
  // 5% slower: inside the default 10% tolerance.
  candidate.addSeries("nginx/docker-egs/total",
                      makeSamples({0.504, 0.5355, 0.4935, 0.546, 0.5145}));
  EXPECT_TRUE(compareReports(baseline, candidate).ok());
}

TEST(CompareReports, FlagsMissingSeries) {
  const BenchReport baseline = makeReport();
  BenchReport candidate("fig11_scaleup");
  candidate.addSeries("nginx/docker-egs/total",
                      makeSamples({0.48, 0.51, 0.47, 0.52, 0.49}));
  const auto result = compareReports(baseline, candidate);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.missingSeries.size(), 2u);
}

TEST(CompareReports, FlagsSampleCountMismatch) {
  const BenchReport baseline = makeReport();
  BenchReport candidate = makeReport();
  candidate.addSeries("nginx/docker-egs/total",
                      makeSamples({0.48, 0.51, 0.47}));
  const auto result = compareReports(baseline, candidate);
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.regressions.empty());
  EXPECT_EQ(result.regressions.front().metric, "count");
}

TEST(CompareReports, AbsoluteFloorIgnoresSubMicrosecondNoise) {
  BenchReport baseline("micro");
  baseline.addScalar("rng", 2e-9);
  BenchReport candidate("micro");
  candidate.addScalar("rng", 3e-9);  // +50%, but only one nanosecond
  EXPECT_TRUE(compareReports(baseline, candidate).ok());
}

TEST(CompareReports, ReportsImprovedSeries) {
  const BenchReport baseline = makeReport();
  BenchReport candidate = makeReport();
  candidate.addSeries("nginx/docker-egs/total",
                      makeSamples({0.24, 0.255, 0.235, 0.26, 0.245}));
  const auto result = compareReports(baseline, candidate);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.improvedSeries.size(), 1u);
  EXPECT_EQ(result.improvedSeries.front(), "nginx/docker-egs/total");
}

TEST(CompareReports, CustomToleranceWidensTheGate) {
  const BenchReport baseline = makeReport();
  BenchReport candidate = makeReport();
  candidate.addSeries("nginx/docker-egs/total",
                      makeSamples({0.576, 0.612, 0.564, 0.624, 0.588}));
  CompareOptions options;
  options.tolerance = 0.25;  // 20% slowdown is now acceptable
  EXPECT_TRUE(compareReports(baseline, candidate, options).ok());
}

}  // namespace
}  // namespace edgesim::metrics
