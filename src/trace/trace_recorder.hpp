// Per-request tracing for the deployment pipeline (observability layer).
//
// The paper's evaluation decomposes `time_total` into deployment phases
// (Pull -> Create -> Scale-Up, figs. 11-16); `metrics::Recorder` aggregates
// those into per-series medians but cannot say where ONE request spent its
// time.  TraceRecorder fills that gap: typed span/instant events carry a
// request ID that is allocated at `packet_in`, threaded through the
// FlowMemory lookup, the Global/Local Scheduler decision, every deployment
// phase (including retry/fallback/quarantine transitions) and the final
// flow installation, and joined with the client-side timecurl measurement
// when the response lands.
//
// Thread model: recording goes to PER-THREAD buffers.  The first thread to
// record (the recorder's creator, i.e. the simulation thread) owns buffer
// 0; other threads lazily acquire their own buffer on first use.  Request
// IDs come from one atomic counter, so IDs allocated on different threads
// never collide.  Buffers are merged only at export:
//   * one populated buffer (every single-threaded run) -> events export in
//     recording order with the same span IDs as the pre-threading layout,
//     so deterministic runs stay BIT-IDENTICAL to the seed;
//   * several populated buffers -> a canonical content sort (start time,
//     request, category, name, id) makes the export independent of thread
//     interleaving, though not of the run's thread/buffer assignment.
// Span IDs encode (buffer, local index) so endSpan() finds its span without
// any global table; buffer 0 reproduces the seed's 1-based dense IDs.
//
// Exports:
//   * Chrome trace_event JSON ("X"/"i"/"M" events, chrome://tracing and
//     Perfetto loadable; one timeline row per request ID);
//   * a per-request phase-breakdown table whose segments partition
//     `time_total` exactly (uplink / resolve / downlink around the
//     controller-side spans);
//   * per-phase Samples maps feeding the BENCH_<name>.json reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace edgesim::trace {

/// Monotonic per-recorder request identifier; 0 = unattributed.
using RequestId = std::uint64_t;
/// Span identifier; 0 = none.  Encodes (buffer << 40) | (local index + 1);
/// buffer 0 (single-threaded recording) yields dense 1-based IDs.
using SpanId = std::uint64_t;

/// A trace argument's key.  Only a string literal binds (a consteval
/// constructor over `const char (&)[N]`), so the recorder keeps the bare
/// pointer: the text outlives every trace and costs no allocation.
class TraceKey {
 public:
  template <std::size_t N>
  consteval TraceKey(const char (&literal)[N]) : text_(literal) {}

  constexpr const char* c_str() const { return text_; }

 private:
  const char* text_;
};

/// A trace argument's value, stored as recorded and formatted only at
/// export (formatTraceValue), so the request path never prints an address.
using TraceValue = std::variant<std::string, Ipv4, Endpoint, std::uint64_t,
                                PacketHeader, Error>;

/// The exported text of `value`: the string itself, `toString()` of an
/// address, packet header or error, or the decimal digits of an integer.
std::string formatTraceValue(const TraceValue& value);

struct TraceArg {
  TraceKey key;
  TraceValue value;
};

using TraceArgs = std::vector<TraceArg>;

struct TraceSpan {
  SpanId id = 0;
  SpanId parent = 0;        // enclosing span, 0 = top level
  RequestId request = 0;
  std::string name;         // "request", "resolve", "pull", "scaleup", ...
  std::string category;     // "client", "controller", "scheduler", "deploy"
  SimTime start;
  SimTime end;
  bool open = true;         // endSpan not yet seen
  TraceArgs args;

  SimTime duration() const { return end - start; }
};

struct TraceInstant {
  RequestId request = 0;
  std::string name;         // "packet-in", "flow-memory-hit", "retry", ...
  std::string category;
  SimTime at;
  TraceArgs args;
};

/// One request's phase decomposition.  `segments` partition `total` exactly
/// (same sim clock, no sampling): uplink (client send -> packet-in),
/// resolve (packet-in -> redirect decided), downlink (redirect -> response
/// received).  `phases` are the deployment spans nested inside resolve.
struct RequestBreakdown {
  RequestId request = 0;
  double totalSeconds = 0.0;                    // == root "request" span
  std::vector<std::pair<std::string, double>> segments;
  std::vector<std::pair<std::string, double>> phases;

  double segmentSum() const;
};

class TraceRecorder {
 public:
  TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Disabled recorders turn every call into a no-op (and allocate nothing).
  void setEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Bound total stored events (spans + instants across all buffers); 0 =
  /// unbounded, the historical default.  Over the cap, beginSpan returns 0
  /// (endSpan(0) is already a no-op) and instants are discarded; drops are
  /// tallied in droppedEvents() and surfaced through the telemetry registry
  /// as `edgesim_trace_dropped_events`.  The count uses relaxed atomics, so
  /// the cap is approximate under concurrency (off by at most the number of
  /// recording threads).
  void setCapacity(std::size_t maxEvents) {
    maxEvents_.store(maxEvents, std::memory_order_relaxed);
  }
  std::size_t droppedEvents() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // ---- recording (all thread-safe) ----------------------------------------
  RequestId newRequest();

  SpanId beginSpan(RequestId request, const std::string& name,
                   const std::string& category, SimTime now,
                   TraceArgs args = {}, SpanId parent = 0);
  void endSpan(SpanId span, SimTime now, TraceArgs extraArgs = {});
  /// Record a span whose start/end are both known (async completions).
  SpanId completeSpan(RequestId request, const std::string& name,
                      const std::string& category, SimTime start, SimTime end,
                      TraceArgs args = {}, SpanId parent = 0);
  void instant(RequestId request, const std::string& name,
               const std::string& category, SimTime at, TraceArgs args = {});

  // ---- request-ID propagation to the client side --------------------------
  /// The controller binds the (client, service) flow key to the request ID
  /// it allocated at packet-in; the client-side measurement consumes the
  /// binding when the HTTP exchange completes, attaching the root span to
  /// the same request.  One binding per key; consumed on use, so a warm
  /// request (no packet-in) gets a fresh ID with a "warm-path" marker.
  void bindFlow(Ipv4 client, Endpoint service, RequestId request);
  /// Finish a client request: emits the root "request" span covering
  /// exactly timecurl's time_total.  Returns the request ID used.
  RequestId clientRequestDone(Ipv4 client, Endpoint service, SimTime start,
                              SimTime end, bool success,
                              const std::string& series);

  // ---- access --------------------------------------------------------------
  /// Merged snapshot of all buffers (see header comment for ordering).
  std::vector<TraceSpan> spans() const;
  std::vector<TraceInstant> instants() const;
  std::size_t spanCount() const {
    return spanCount_.load(std::memory_order_relaxed);
  }
  /// Decode `id` into its per-thread buffer; pointer stays valid for the
  /// recorder's lifetime (deque storage), but don't hold it across a
  /// concurrent endSpan() of the same span.
  const TraceSpan* spanById(SpanId id) const;

  // ---- export -------------------------------------------------------------
  /// Chrome trace_event document: {"traceEvents": [...], ...}.  `pid` is
  /// constant, `tid` is the request ID so every request gets its own
  /// timeline row; open spans are closed at the maximum observed time.
  JsonValue chromeTrace() const;
  std::string chromeTraceJson(int indent = 0) const;

  /// Per-request breakdowns (requests with a root span only), in request
  /// order.
  std::vector<RequestBreakdown> breakdowns() const;
  /// One row per request: total, per-segment and per-phase seconds.
  Table breakdownTable() const;
  /// Aggregate phase/segment durations across requests, keyed
  /// "trace/<name>" -- merged into BENCH_<name>.json as the trace-derived
  /// phase splits.
  std::map<std::string, Samples> phaseSamples() const;

 private:
  /// One thread's recording area.  Only the owning thread appends;
  /// endSpan() and export may come from other threads, so every access
  /// goes through the buffer mutex (uncontended in the common case).
  struct Buffer {
    mutable std::mutex mutex;
    std::deque<TraceSpan> spans;      // deque: spanById pointers stay stable
    std::deque<TraceInstant> instants;
  };

  /// This thread's (buffer index, buffer) in this recorder, creating the
  /// buffer on first use.  The pointer is cached thread-locally so the hot
  /// path never reads the (mutable) registry vector.
  std::pair<std::size_t, Buffer*> myBuffer();
  /// Stable snapshot of the buffer registry (buffers are never removed).
  std::vector<Buffer*> bufferList() const;
  /// Reserve storage for one more event; false = cap reached, drop it.
  bool admitEvent();

  const std::uint64_t id_;  // globally unique; keys the thread-local lookup
  std::atomic<bool> enabled_{true};
  std::atomic<RequestId> nextRequest_{0};
  std::atomic<std::size_t> spanCount_{0};
  std::atomic<std::size_t> maxEvents_{0};
  std::atomic<std::size_t> eventCount_{0};
  std::atomic<std::size_t> dropped_{0};

  mutable std::mutex buffersMutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;

  std::mutex bindingsMutex_;
  std::map<std::pair<Ipv4, Endpoint>, RequestId> flowBindings_;
};

}  // namespace edgesim::trace
