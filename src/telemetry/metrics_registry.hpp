// Metrics registry for live introspection of the running system.
//
// The Recorder keeps samples and the TraceRecorder events, both exported
// at end of run: post-hoc, and growing with the number of requests.
// This registry holds *state* -- named counters, gauges and log-linear
// histograms -- cheap enough to update from the warm path and readable at
// any time.
//
// One writer, one cell: the simulation runs one event queue on one thread,
// which is the only thread that updates a testbed's registry.  A counter is
// one integer, a gauge one integer, a histogram one bucket array and one
// sum; an update is a plain add, and a read is exact.  Snapshots run on the
// same thread (SnapshotWriter is a simulation event), or on any thread once
// the simulation has stopped.
//
// Histograms are log-linear over seconds: base-2 octaves split into 4
// linear sub-buckets (top 2 mantissa bits), covering [2^-31, 2^12) s --
// about half a nanosecond to ~68 minutes -- in 172 buckets with <= 25%
// relative bucket width.  bucketIndex() is a handful of bit operations on
// the IEEE-754 representation; out-of-range values clamp to the first /
// last bucket.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime: instrumentation sites resolve them ONCE at
// construction and the hot path never touches the registry map.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/snapshot.hpp"

namespace edgesim::telemetry {

/// Monotonically increasing event count: one integer.
class Counter {
 public:
  Counter() = default;

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depth, occupancy).
class Gauge {
 public:
  Gauge() = default;

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += d; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Log-linear latency histogram over seconds (see header comment).
/// observe() is one bucket index computation and two adds.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;   // 2 mantissa bits per octave
  static constexpr int kMinExp = -31;     // lowest octave [2^-31, 2^-30) s
  static constexpr int kMaxExp = 11;      // highest octave [2^11, 2^12) s
  static constexpr int kOctaves = kMaxExp - kMinExp + 1;
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  Histogram() = default;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double seconds) {
    ++buckets_[bucketIndex(seconds)];
    sumNanos_ += static_cast<std::int64_t>(seconds * 1e9);
  }

  /// Bucket counts (size kBuckets, non-cumulative).
  std::vector<std::uint64_t> bucketCounts() const;
  std::uint64_t count() const;
  double sum() const;  // seconds (nanosecond resolution)
  /// Quantile with linear interpolation inside the bucket; NaN when empty.
  double quantile(double q) const;

  /// Bucket for `seconds`: exponent and top-2 mantissa bits of the IEEE-754
  /// double.  Non-positive (and NaN) values land in bucket 0; values at or
  /// beyond 2^12 s clamp to the last bucket.
  static int bucketIndex(double seconds) {
    if (!(seconds > 0.0)) return 0;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(seconds);
    const int octave =
        (static_cast<int>(bits >> 52) & 0x7FF) - 1023 - kMinExp;
    if (octave < 0) return 0;
    if (octave >= kOctaves) return kBuckets - 1;
    return octave * kSubBuckets + static_cast<int>((bits >> 50) & 0x3);
  }
  static double bucketLowerBound(int index);
  static double bucketUpperBound(int index);
  /// Quantile over an arbitrary bucket-count vector (e.g. a windowed delta
  /// computed by the SLO watchdog).  NaN when the counts sum to zero.
  static double quantileFromCounts(const std::vector<std::uint64_t>& counts,
                                   double q);
  /// Windowed bucket delta: window = counts - last element-wise, then last
  /// is refreshed to counts.  Returns the sample count in the window.
  /// `last` is resized (zero-filled) on first use.  This is the shared
  /// mechanism behind the SLO watchdog's and the overload governor's
  /// rolling latency windows: cumulative bucket snapshots differenced
  /// against the previous evaluation.
  static std::uint64_t deltaCounts(const std::vector<std::uint64_t>& counts,
                                   std::vector<std::uint64_t>& last,
                                   std::vector<std::uint64_t>& window);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::int64_t sumNanos_ = 0;
};

/// Named, labelled instrument registry (see header comment for the write /
/// read model).  Metric handles are stable references; series are keyed on
/// the exact (name, labels) pair and created on first request.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Point-in-time view, series sorted by (name, labels).  Bumps the
  /// snapshot sequence number.
  TelemetrySnapshot snapshot(double simTimeSeconds) const;

 private:
  template <typename Metric>
  struct Series {
    std::string name;
    Labels labels;
    std::unique_ptr<Metric> metric;
  };

  static std::string seriesKey(const std::string& name, const Labels& labels);

  mutable std::uint64_t nextSequence_ = 0;
  std::map<std::string, Series<Counter>> counters_;
  std::map<std::string, Series<Gauge>> gauges_;
  std::map<std::string, Series<Histogram>> histograms_;
};

}  // namespace edgesim::telemetry
