// Lock-light metrics registry for live introspection of the running system.
//
// Any thread may update it; the existing Recorder/TraceRecorder buffer
// *events* and export at end of run, which is both post-hoc and (for
// million-request runs) unbounded.
// This registry holds *state* -- named counters, gauges and log-linear
// histograms -- cheap enough to update from the warm path and readable at
// any time:
//
//   * writes go to per-thread STRIPES: each thread hashes to one of
//     kStripes cache-line-padded atomic cells and does a relaxed
//     fetch_add.  No locks, no CAS loops; two threads only share a cell
//     (and a cache line) if they collide mod kStripes.
//   * reads MERGE the stripes: value() sums the cells with relaxed loads.
//     Concurrent with writers the result is a moment-in-time approximation
//     (each cell is exact, the sum may straddle updates); once writers are
//     quiescent (drain()ed pool, stopped sim) it is exact -- which is when
//     the reconciliation checks in bench_telemetry_fig16 run.
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
// construction and the hot path never touches the registry map or its
// mutex.  Registration itself (and snapshot()) is mutex-guarded and cheap
// but not hot-path safe by design.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/snapshot.hpp"

namespace edgesim::telemetry {

namespace detail {

/// Number of write stripes per metric.  Enough that a sim thread plus a
/// typical worker pool (<= 8) rarely collide; small enough that merging
/// stays trivial.
inline constexpr std::size_t kStripes = 16;

std::size_t allocateStripe();

/// This thread's stripe index, assigned round-robin on first use.
inline std::size_t threadStripe() {
  thread_local const std::size_t stripe = allocateStripe();
  return stripe;
}

}  // namespace detail

/// Monotonically increasing event count.  add() is wait-free (one relaxed
/// fetch_add on a thread-striped cell); value() merges the stripes.
class Counter {
 public:
  Counter() : cells_(new Cell[detail::kStripes]) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    cells_[detail::threadStripe()].value.fetch_add(n,
                                                   std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < detail::kStripes; ++i) {
      total += cells_[i].value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::unique_ptr<Cell[]> cells_;
};

/// Last-write-wins instantaneous value (queue depth, occupancy).  A single
/// atomic: gauges are set, not accumulated, so striping would have no
/// meaningful merge.
class Gauge {
 public:
  Gauge() = default;

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear latency histogram over seconds (see header comment).
/// observe() is wait-free: one bucket index computation plus two relaxed
/// fetch_adds on this thread's stripe.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;   // 2 mantissa bits per octave
  static constexpr int kMinExp = -31;     // lowest octave [2^-31, 2^-30) s
  static constexpr int kMaxExp = 11;      // highest octave [2^11, 2^12) s
  static constexpr int kOctaves = kMaxExp - kMinExp + 1;
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  Histogram() : stripes_(new Stripe[detail::kStripes]) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double seconds) {
    Stripe& stripe = stripes_[detail::threadStripe()];
    stripe.buckets[bucketIndex(seconds)].fetch_add(1,
                                                   std::memory_order_relaxed);
    stripe.sumNanos.fetch_add(static_cast<std::int64_t>(seconds * 1e9),
                              std::memory_order_relaxed);
  }

  /// Merged bucket counts (size kBuckets, non-cumulative).
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
  struct Stripe {
    std::atomic<std::uint64_t> buckets[kBuckets];
    alignas(64) std::atomic<std::int64_t> sumNanos{0};
  };
  std::unique_ptr<Stripe[]> stripes_;
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
  /// Polled gauge: `fn` is evaluated at snapshot time on the snapshotting
  /// thread.  Lets other modules (Recorder / TraceRecorder drop counts)
  /// surface values without depending on telemetry.  Re-registering the
  /// same series replaces the callback.
  void gaugeFn(const std::string& name, const Labels& labels,
               std::function<double()> fn);

  /// Merged point-in-time view, series sorted by (name, labels).  Bumps
  /// the snapshot sequence number.  Safe to call while writers run (values
  /// are then approximations; exact at quiescence).
  TelemetrySnapshot snapshot(double simTimeSeconds) const;

 private:
  template <typename Metric>
  struct Series {
    std::string name;
    Labels labels;
    std::unique_ptr<Metric> metric;
  };
  struct FnSeries {
    std::string name;
    Labels labels;
    std::function<double()> fn;
  };

  static std::string seriesKey(const std::string& name, const Labels& labels);

  mutable std::mutex mutex_;
  mutable std::atomic<std::uint64_t> nextSequence_{0};
  std::map<std::string, Series<Counter>> counters_;
  std::map<std::string, Series<Gauge>> gauges_;
  std::map<std::string, FnSeries> gaugeFns_;
  std::map<std::string, Series<Histogram>> histograms_;
};

}  // namespace edgesim::telemetry
