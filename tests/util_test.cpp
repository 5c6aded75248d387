// Unit and property tests for the util module: rng, stats, strings, units,
// config, table, result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/config.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace edgesim {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent1(7);
  Rng parent2(7);
  Rng childA = parent1.fork(1);
  Rng childB = parent2.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(childA(), childB());
  // Forks with different tags differ.
  Rng p(7);
  Rng c1 = p.fork(1);
  Rng p2(7);
  Rng c2 = p2.fork(2);
  EXPECT_NE(c1(), c2());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniformInt(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(6);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(1.5, 2.0), 1.5);
}

TEST(Rng, ZipfInRangeAndMonotoneFrequency) {
  Rng rng(9);
  constexpr std::uint64_t n = 20;
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < 200000; ++i) {
    const auto r = rng.zipf(n, 1.1);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, n);
    ++counts[r];
  }
  // Rank 1 must dominate rank 5 which dominates rank 20.
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[5], counts[20]);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.zipf(1, 1.0), 1u);
}

// -------------------------------------------------------------- stats ----

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats stats;
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  for (double x : xs) stats.add(x);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), xs.size());
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(Samples, MedianOddEven) {
  Samples s;
  for (double v : {5.0, 1.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 4.0);  // interpolated between 3 and 5
}

TEST(Samples, QuantileEndpoints) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.95), 95.05, 1e-9);
}

TEST(Samples, AddAfterQuantileInvalidatesCache) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.5);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

// Property: quantile is monotone in q.
class QuantileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotone, MonotoneNondecreasing) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Samples s;
  const int n = 1 + static_cast<int>(rng.uniformInt(0, 500));
  for (int i = 0; i < n; ++i) s.add(rng.normal(0, 10));
  double prev = s.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone, ::testing::Range(1, 21));

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps into bin 0
  h.add(100.0);  // clamps into last bin
  EXPECT_DOUBLE_EQ(h.binWeight(0), 2.0);
  EXPECT_DOUBLE_EQ(h.binWeight(9), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(h.binLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.binHigh(0), 25.0);
  EXPECT_DOUBLE_EQ(h.binLow(3), 75.0);
  EXPECT_DOUBLE_EQ(h.binHigh(3), 100.0);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 2.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.5);
  h.add(1.5);
  const auto text = h.render(10);
  EXPECT_NE(text.find("##########"), std::string::npos);
}

// ------------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNonEmpty) {
  const auto parts = splitNonEmpty("/a//b/", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, TrimEdges) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("nginx:1.23", "nginx"));
  EXPECT_FALSE(startsWith("ng", "nginx"));
  EXPECT_TRUE(endsWith("web-asm:amd64", ":amd64"));
  EXPECT_FALSE(endsWith("d64", ":amd64"));
}

TEST(Strings, JoinAndLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(toLower("NgInX"), "nginx");
}

TEST(Strings, NumberPredicates) {
  EXPECT_TRUE(isInteger("42"));
  EXPECT_TRUE(isInteger("-7"));
  EXPECT_FALSE(isInteger("4.2"));
  EXPECT_FALSE(isInteger("x"));
  EXPECT_FALSE(isInteger(""));
  EXPECT_TRUE(isNumber("4.2"));
  EXPECT_TRUE(isNumber("-1e3"));
  EXPECT_FALSE(isNumber("4.2.3"));
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%s=%d", "x", 7), "x=7");
  EXPECT_EQ(strprintf("%.2f", 1.0 / 3), "0.33");
  EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Strings, StrprintfPastTheStackBufferTakesTheSizedPass) {
  // Output of 255 chars fits the 256-byte stack buffer with its NUL; 256,
  // 257 and 4002 chars need the second pass.
  for (const std::size_t length : {253u, 254u, 255u, 4000u}) {
    const std::string text(length, 'x');
    const std::string out = strprintf("<%s>", text.c_str());
    ASSERT_EQ(out.size(), length + 2);
    EXPECT_EQ(out, "<" + text + ">");
  }
}

// --------------------------------------------------------------- units ----

TEST(Units, ParseBytesVariants) {
  Bytes b;
  ASSERT_TRUE(parseBytes("6.18 KiB", b));
  EXPECT_EQ(b.value, static_cast<std::uint64_t>(std::llround(6.18 * 1024)));
  ASSERT_TRUE(parseBytes("135MiB", b));
  EXPECT_EQ(b.value, 135ull * 1024 * 1024);
  ASSERT_TRUE(parseBytes("308 MiB", b));
  EXPECT_EQ(b.value, 308ull * 1024 * 1024);
  ASSERT_TRUE(parseBytes("512", b));
  EXPECT_EQ(b.value, 512u);
  ASSERT_TRUE(parseBytes("1.5GB", b));
  EXPECT_EQ(b.value, 1500000000u);
}

TEST(Units, ParseBytesRejectsGarbage) {
  Bytes b;
  EXPECT_FALSE(parseBytes("", b));
  EXPECT_FALSE(parseBytes("MiB", b));
  EXPECT_FALSE(parseBytes("abcMiB", b));
  EXPECT_FALSE(parseBytes("-3MiB", b));
}

TEST(Units, FormatBytesPicksUnit) {
  EXPECT_EQ(formatBytes(Bytes{100}), "100 B");
  EXPECT_EQ(formatBytes(2048_B), "2.00 KiB");
  EXPECT_EQ(formatBytes(135_MiB), "135.0 MiB");
}

TEST(Units, TransmissionTime) {
  // 1 Gbps, 125 bytes = 1000 bits -> 1 us.
  EXPECT_EQ((1_Gbps).transmissionNanos(Bytes{125}), 1000);
  // Zero rate means "infinite" (no serialisation delay modelled).
  EXPECT_EQ((0_bps).transmissionNanos(1_MiB), 0);
}

TEST(Units, ByteLiteralsAndArithmetic) {
  EXPECT_EQ((1_KiB).value, 1024u);
  EXPECT_EQ((1_MiB + 1_KiB).value, 1024u * 1024 + 1024);
  Bytes b = 2_KiB;
  b -= 1_KiB;
  EXPECT_EQ(b, 1_KiB);
}

// -------------------------------------------------------------- config ----

TEST(Config, ParseBasics) {
  const auto result = Config::parse(R"(
# controller configuration
scheduler = proximity
flow.idle_timeout_ms = 15000
waiting = true
ratio = 0.75
)");
  ASSERT_TRUE(result.ok());
  const auto& config = result.value();
  EXPECT_EQ(config.getStringOr("scheduler", ""), "proximity");
  EXPECT_EQ(config.getIntOr("flow.idle_timeout_ms", 0), 15000);
  EXPECT_TRUE(config.getBoolOr("waiting", false));
  EXPECT_DOUBLE_EQ(config.getDoubleOr("ratio", 0), 0.75);
}

TEST(Config, MissingKeysUseFallbacks) {
  Config config;
  EXPECT_EQ(config.getStringOr("nope", "fallback"), "fallback");
  EXPECT_EQ(config.getIntOr("nope", -1), -1);
  EXPECT_FALSE(config.getInt("nope").has_value());
}

TEST(Config, MalformedLinesRejected) {
  EXPECT_FALSE(Config::parse("key_without_equals").ok());
  EXPECT_FALSE(Config::parse("= value").ok());
}

TEST(Config, TypeMismatchReturnsNullopt) {
  Config config;
  config.set("x", "abc");
  EXPECT_FALSE(config.getInt("x").has_value());
  EXPECT_FALSE(config.getBool("x").has_value());
  EXPECT_FALSE(config.getDouble("x").has_value());
}

TEST(Config, CommentsAndOverride) {
  const auto result = Config::parse("a = 1 # trailing\na = 2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().getIntOr("a", 0), 2);
}

// --------------------------------------------------------------- table ----

TEST(Table, RenderAlignsColumns) {
  Table t({"Service", "Docker", "K8s"});
  t.addRow({"Nginx", "0.6", "3.1"});
  t.addRow({"ResNet", "4.1", "7.9"});
  const auto text = t.render();
  EXPECT_NE(text.find("| Service |"), std::string::npos);
  EXPECT_NE(text.find("| Nginx "), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.addRow({"plain", "has,comma"});
  t.addRow({"has\"quote", "x"});
  const auto csv = t.csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

// -------------------------------------------------------------- result ----

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = makeError(Errc::kNotFound, "missing");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Errc::kNotFound);
  EXPECT_EQ(err.error().toString(), "not-found: missing");
  EXPECT_EQ(err.valueOr(-1), -1);
}


// --------------------------------------------------------------- Json ----

TEST(Json, RoundTripsValuesThroughDumpAndParse) {
  JsonValue obj = JsonValue::object();
  obj.set("name", "edge \"svc\"\n");
  obj.set("count", 42);
  obj.set("ratio", 0.25);
  obj.set("precise", 0.1);  // not exactly representable; must round-trip
  obj.set("on", true);
  obj.set("off", false);
  obj.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push(1);
  arr.push(2.5);
  arr.push("three");
  obj.set("items", std::move(arr));

  for (const int indent : {0, 2}) {
    const auto parsed = JsonValue::parse(obj.dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
    const JsonValue& v = parsed.value();
    EXPECT_EQ(v.stringOr("name", ""), "edge \"svc\"\n");
    EXPECT_EQ(v.numberOr("count", -1), 42);
    EXPECT_EQ(v.numberOr("ratio", -1), 0.25);
    EXPECT_EQ(v.numberOr("precise", -1), 0.1);
    EXPECT_TRUE(v.find("on")->asBool());
    EXPECT_FALSE(v.find("off")->asBool());
    EXPECT_TRUE(v.find("nothing")->isNull());
    const JsonValue* items = v.find("items");
    ASSERT_NE(items, nullptr);
    ASSERT_EQ(items->size(), 3u);
    EXPECT_EQ(items->at(0).asNumber(), 1);
    EXPECT_EQ(items->at(2).asString(), "three");
  }
}

TEST(Json, ObjectKeepsInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  obj.set("alpha", 9);  // overwrite keeps the original position
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1}extra"}) {
    EXPECT_FALSE(JsonValue::parse(bad).ok()) << bad;
  }
}

TEST(Json, ParseHandlesEscapesAndNesting) {
  const auto parsed = JsonValue::parse(
      "  {\"a\" : [ {\"b\": \"x\\u0041\\n\"} , -1.5e2 ] }  ");
  ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
  const JsonValue* a = parsed.value().find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ(a->at(0).stringOr("b", ""), "xA\n");
  EXPECT_EQ(a->at(1).asNumber(), -150.0);
}

TEST(Status, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad = makeError(Errc::kTimeout, "deadline");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kTimeout);
}

}  // namespace
}  // namespace edgesim
