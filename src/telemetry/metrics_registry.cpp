#include "telemetry/metrics_registry.hpp"

#include <algorithm>
#include <cmath>

namespace edgesim::telemetry {

// ---- Histogram --------------------------------------------------------------

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  return {buckets_.begin(), buckets_.end()};
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets_) total += c;
  return total;
}

double Histogram::sum() const { return static_cast<double>(sumNanos_) / 1e9; }

double Histogram::quantile(double q) const {
  return quantileFromCounts(bucketCounts(), q);
}

double Histogram::bucketLowerBound(int index) {
  if (index <= 0) return 0.0;  // bucket 0 absorbs the underflow
  const int octave = index / kSubBuckets + kMinExp;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + 0.25 * sub, octave);
}

double Histogram::bucketUpperBound(int index) {
  const int octave = index / kSubBuckets + kMinExp;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + 0.25 * (sub + 1), octave);
}

double Histogram::quantileFromCounts(const std::vector<std::uint64_t>& counts,
                                     double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return std::nan("");
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, total]; the quantile lives in the bucket where the
  // cumulative count first reaches it.
  const double rank = std::max(1.0, q * static_cast<double>(total));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = bucketLowerBound(static_cast<int>(b));
      const double upper = bucketUpperBound(static_cast<int>(b));
      const double within = (rank - static_cast<double>(before)) /
                            static_cast<double>(counts[b]);
      return lower + (upper - lower) * within;
    }
  }
  return bucketUpperBound(static_cast<int>(counts.size()) - 1);
}

std::uint64_t Histogram::deltaCounts(const std::vector<std::uint64_t>& counts,
                                     std::vector<std::uint64_t>& last,
                                     std::vector<std::uint64_t>& window) {
  if (last.size() != counts.size()) last.assign(counts.size(), 0);
  window.assign(counts.size(), 0);
  std::uint64_t samples = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    window[b] = counts[b] - last[b];
    samples += window[b];
  }
  last = counts;
  return samples;
}

// ---- MetricsRegistry --------------------------------------------------------

std::string MetricsRegistry::seriesKey(const std::string& name,
                                       const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  auto [it, inserted] = counters_.try_emplace(seriesKey(name, labels));
  if (inserted) {
    it->second = {name, labels, std::make_unique<Counter>()};
  }
  return *it->second.metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  auto [it, inserted] = gauges_.try_emplace(seriesKey(name, labels));
  if (inserted) {
    it->second = {name, labels, std::make_unique<Gauge>()};
  }
  return *it->second.metric;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  auto [it, inserted] = histograms_.try_emplace(seriesKey(name, labels));
  if (inserted) {
    it->second = {name, labels, std::make_unique<Histogram>()};
  }
  return *it->second.metric;
}

TelemetrySnapshot MetricsRegistry::snapshot(double simTimeSeconds) const {
  TelemetrySnapshot snap;
  snap.sequence = nextSequence_++;
  snap.simTimeSeconds = simTimeSeconds;

  snap.counters.reserve(counters_.size());
  for (const auto& [key, series] : counters_) {
    snap.counters.push_back({series.name, series.labels,
                             series.metric->value()});
  }

  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, series] : gauges_) {
    snap.gauges.push_back({series.name, series.labels,
                           static_cast<double>(series.metric->value())});
  }

  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, series] : histograms_) {
    SnapshotHistogram hist;
    hist.name = series.name;
    hist.labels = series.labels;
    const std::vector<std::uint64_t> counts = series.metric->bucketCounts();
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] == 0) continue;
      cumulative += counts[b];
      hist.buckets.push_back(
          {Histogram::bucketUpperBound(static_cast<int>(b)), cumulative});
    }
    hist.count = cumulative;
    hist.sum = series.metric->sum();
    snap.histograms.push_back(std::move(hist));
  }
  return snap;
}

}  // namespace edgesim::telemetry
