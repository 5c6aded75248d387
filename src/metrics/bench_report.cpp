#include "metrics/bench_report.hpp"

#include <cmath>
#include <cstdio>

#include "util/strings.hpp"

namespace edgesim::metrics {

SeriesStats SeriesStats::fromSamples(const Samples& samples,
                                     bool includeSamples) {
  SeriesStats stats;
  stats.count = samples.count();
  if (!samples.empty()) {
    stats.median = samples.median();
    stats.mean = samples.mean();
    stats.p95 = samples.p95();
    stats.min = samples.min();
    stats.max = samples.max();
  }
  if (includeSamples) stats.samples = samples.values();
  return stats;
}

BenchReport::BenchReport(std::string benchName) : name_(std::move(benchName)) {}

void BenchReport::setMeta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void BenchReport::addSeries(const std::string& name, const Samples& samples,
                            bool includeSamples) {
  series_[name] = SeriesStats::fromSamples(samples, includeSamples);
}

void BenchReport::addSeriesMap(const std::map<std::string, Samples>& map,
                               const std::string& prefix,
                               bool includeSamples) {
  for (const auto& [name, samples] : map) {
    addSeries(prefix.empty() ? name : prefix + "/" + name, samples,
              includeSamples);
  }
}

void BenchReport::addScalar(const std::string& name, double value) {
  Samples samples;
  samples.add(value);
  addSeries(name, samples, /*includeSamples=*/true);
}

const SeriesStats* BenchReport::findSeries(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

JsonValue BenchReport::toJson() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("bench", name_);

  JsonValue meta = JsonValue::object();
  for (const auto& [key, value] : meta_) meta.set(key, value);
  doc.set("meta", std::move(meta));

  JsonValue series = JsonValue::object();
  for (const auto& [name, stats] : series_) {
    JsonValue entry = JsonValue::object();
    entry.set("count", stats.count);
    entry.set("median", stats.median);
    entry.set("mean", stats.mean);
    entry.set("p95", stats.p95);
    entry.set("min", stats.min);
    entry.set("max", stats.max);
    if (!stats.samples.empty()) {
      JsonValue samples = JsonValue::array();
      for (const double v : stats.samples) samples.push(v);
      entry.set("samples", std::move(samples));
    }
    series.set(name, std::move(entry));
  }
  doc.set("series", std::move(series));
  return doc;
}

std::string BenchReport::toJsonString(int indent) const {
  return toJson().dump(indent);
}

Result<BenchReport> BenchReport::fromJson(const JsonValue& json) {
  if (!json.isObject()) {
    return makeError(Errc::kInvalidArgument, "bench report: not an object");
  }
  if (json.stringOr("schema", "") != kSchemaName) {
    return makeError(Errc::kInvalidArgument,
                     "bench report: unknown schema '" +
                         json.stringOr("schema", "<missing>") + "'");
  }
  const int version =
      static_cast<int>(json.numberOr("schema_version", 0));
  if (version < 1 || version > kSchemaVersion) {
    return makeError(Errc::kInvalidArgument,
                     "bench report: unsupported schema_version " +
                         std::to_string(version));
  }
  BenchReport report(json.stringOr("bench", ""));
  if (report.name_.empty()) {
    return makeError(Errc::kInvalidArgument, "bench report: missing bench name");
  }
  if (const JsonValue* meta = json.find("meta"); meta != nullptr) {
    for (const auto& [key, value] : meta->members()) {
      if (value.isString()) report.meta_[key] = value.asString();
    }
  }
  const JsonValue* series = json.find("series");
  if (series == nullptr || !series->isObject()) {
    return makeError(Errc::kInvalidArgument, "bench report: missing series");
  }
  for (const auto& [name, entry] : series->members()) {
    if (!entry.isObject()) {
      return makeError(Errc::kInvalidArgument,
                       "bench report: series '" + name + "' is not an object");
    }
    SeriesStats stats;
    stats.count = static_cast<std::size_t>(entry.numberOr("count", 0));
    stats.median = entry.numberOr("median", 0.0);
    stats.mean = entry.numberOr("mean", 0.0);
    stats.p95 = entry.numberOr("p95", 0.0);
    stats.min = entry.numberOr("min", 0.0);
    stats.max = entry.numberOr("max", 0.0);
    if (const JsonValue* samples = entry.find("samples");
        samples != nullptr && samples->isArray()) {
      for (const JsonValue& v : samples->items()) {
        if (v.isNumber()) stats.samples.push_back(v.asNumber());
      }
    }
    report.series_[name] = std::move(stats);
  }
  return report;
}

Result<BenchReport> BenchReport::fromFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return makeError(Errc::kNotFound, "cannot open " + path);
  }
  std::string text;
  char buffer[4096];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, read);
  }
  std::fclose(file);
  auto json = JsonValue::parse(text);
  if (!json.ok()) {
    return makeError(json.error().code, path + ": " + json.error().message);
  }
  auto report = fromJson(json.value());
  if (!report.ok()) {
    return makeError(report.error().code, path + ": " + report.error().message);
  }
  return report;
}

Status BenchReport::writeFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return makeError(Errc::kUnavailable, "cannot write " + path);
  }
  const std::string text = toJsonString() + "\n";
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  if (written != text.size()) {
    return makeError(Errc::kUnavailable, "short write to " + path);
  }
  return Status();
}

// ---- regression comparison --------------------------------------------------

std::string SeriesRegression::toString() const {
  return strprintf("%s: %s %.6f -> %.6f (%.1f%% vs baseline)", series.c_str(),
                   metric.c_str(), baseline, candidate,
                   (ratio() - 1.0) * 100.0);
}

CompareResult compareReports(const BenchReport& baseline,
                             const BenchReport& candidate,
                             const CompareOptions& options) {
  CompareResult result;
  for (const auto& [name, base] : baseline.series()) {
    const SeriesStats* cand = candidate.findSeries(name);
    if (cand == nullptr) {
      result.missingSeries.push_back(name);
      continue;
    }
    ++result.seriesCompared;

    // NaN/inf poisons every comparison below into "no regression" (NaN
    // compares false against everything), so a broken bench would sail
    // through the gate.  Flag non-finite summary stats outright.
    if (!std::isfinite(base.median) || !std::isfinite(base.p95) ||
        !std::isfinite(cand->median) || !std::isfinite(cand->p95)) {
      result.regressions.push_back(
          {name, "non-finite", base.median, cand->median});
      continue;
    }

    const auto regressed = [&options](double b, double c,
                                      double tolerance) {
      return c > b * (1.0 + tolerance) && c - b > options.absoluteFloor;
    };

    if (regressed(base.median, cand->median, options.tolerance)) {
      result.regressions.push_back(
          {name, "median", base.median, cand->median});
    } else if (base.median > 0.0 &&
               cand->median < base.median * (1.0 - options.tolerance) &&
               base.median - cand->median > options.absoluteFloor) {
      result.improvedSeries.push_back(name);
    }
    if (options.comparePercentile &&
        regressed(base.p95, cand->p95, options.tolerance * 2.0)) {
      result.regressions.push_back({name, "p95", base.p95, cand->p95});
    }
    if (base.count != cand->count) {
      result.regressions.push_back({name, "count",
                                    static_cast<double>(base.count),
                                    static_cast<double>(cand->count)});
    }
  }
  return result;
}

}  // namespace edgesim::metrics
