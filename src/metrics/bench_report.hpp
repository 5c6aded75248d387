// Machine-readable bench output: a schema-versioned JSON report per bench
// binary (BENCH_<name>.json) plus the comparator used by the CI regression
// gate (tools/bench_diff).
//
// Schema (version 1):
//   {
//     "schema": "edgesim-bench",
//     "schema_version": 1,
//     "bench": "fig11_scaleup",
//     "meta": { "seed": "1", ... },
//     "series": {
//       "nginx/docker/total": {
//         "count": 42, "median": 0.48, "mean": ..., "p95": ...,
//         "min": ..., "max": ..., "samples": [ ... ]   // optional
//       }, ...
//     }
//   }
//
// All duration series are lower-is-better; compareReports() flags a series
// whose candidate median (or p95) exceeds baseline * (1 + tolerance), and
// series that disappeared from the candidate.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace edgesim::metrics {

struct SeriesStats {
  std::size_t count = 0;
  double median = 0.0;
  double mean = 0.0;
  double p95 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> samples;  // empty when not exported

  static SeriesStats fromSamples(const Samples& samples, bool includeSamples);
};

class BenchReport {
 public:
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "edgesim-bench";

  explicit BenchReport(std::string benchName);

  const std::string& name() const { return name_; }

  void setMeta(const std::string& key, const std::string& value);
  const std::map<std::string, std::string>& meta() const { return meta_; }

  void addSeries(const std::string& name, const Samples& samples,
                 bool includeSamples = true);
  void addSeriesMap(const std::map<std::string, Samples>& map,
                    const std::string& prefix = "",
                    bool includeSamples = true);
  /// Single-value series (counters: failures, retries, ...).
  void addScalar(const std::string& name, double value);

  const std::map<std::string, SeriesStats>& series() const { return series_; }
  const SeriesStats* findSeries(const std::string& name) const;

  JsonValue toJson() const;
  std::string toJsonString(int indent = 2) const;
  static Result<BenchReport> fromJson(const JsonValue& json);
  static Result<BenchReport> fromFile(const std::string& path);
  Status writeFile(const std::string& path) const;

 private:
  std::string name_;
  std::map<std::string, std::string> meta_;
  std::map<std::string, SeriesStats> series_;  // ordered, stable output
};

// ---- regression comparison --------------------------------------------------

struct SeriesRegression {
  std::string series;
  std::string metric;   // "median" | "p95" | "count"
  double baseline = 0.0;
  double candidate = 0.0;

  /// candidate / baseline (0 when baseline is 0).
  double ratio() const { return baseline != 0.0 ? candidate / baseline : 0.0; }
  std::string toString() const;
};

struct CompareOptions {
  /// Allowed relative slowdown: candidate <= baseline * (1 + tolerance).
  double tolerance = 0.10;
  /// Also gate the 95th percentile, with twice the median tolerance (tail
  /// metrics are noisier).
  bool comparePercentile = true;
  /// Ignore regressions smaller than this in absolute terms (seconds) --
  /// sub-microsecond series otherwise trip on formatting noise.
  double absoluteFloor = 1e-6;
};

struct CompareResult {
  std::vector<SeriesRegression> regressions;
  std::vector<std::string> missingSeries;   // in baseline, absent in candidate
  std::vector<std::string> improvedSeries;  // got faster beyond tolerance
  std::size_t seriesCompared = 0;

  bool ok() const { return regressions.empty() && missingSeries.empty(); }
};

CompareResult compareReports(const BenchReport& baseline,
                             const BenchReport& candidate,
                             const CompareOptions& options = {});

}  // namespace edgesim::metrics
