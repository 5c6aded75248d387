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
// Thread model: ONE writer.  The thread that constructs the recorder (the
// simulation thread in every testbed) is the only one that records; every
// recording call checks this with an always-on assertion that names the
// owner thread.  Reads and exports are legal from any thread once
// recording has stopped.  Span IDs are dense and 1-based in recording
// order, so identical call sequences yield identical IDs and exports.
//
// Storage: one compact store, cheap enough to leave on.  Each span and
// instant is a fixed-size record in chunked blocks (util/chunked_store.hpp:
// nothing moves, growth never copies); names, categories and argument keys
// are TraceKeys, i.e. pointers to string literals; arguments live in one
// chunked argument store and each event points into it by (first, count).
// A stored argument is its key pointer plus a packed 16-byte value:
// integers and addresses inline, text in an append-only character arena,
// packet headers and errors in side stores.  Recording calls take their
// arguments as an initializer list of TraceArgRef, which borrows text for
// the duration of the call, so recording allocates nothing per event.
// spans() / instants() build TraceSpan / TraceInstant values on demand, and
// every value is formatted only at export.
//
// Exports:
//   * Chrome trace_event JSON ("X"/"i"/"M" events, chrome://tracing and
//     Perfetto loadable; one timeline row per request ID);
//   * a per-request phase-breakdown table whose segments partition
//     `time_total` exactly (uplink / resolve / downlink around the
//     controller-side spans);
//   * per-phase Samples maps feeding the BENCH_<name>.json reports.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/chunked_store.hpp"
#include "util/json.hpp"
#include "util/owner_thread.hpp"
#include "util/result.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace edgesim::trace {

/// Monotonic per-recorder request identifier; 0 = unattributed.
using RequestId = std::uint64_t;
/// Span identifier; 0 = none.  Dense and 1-based in recording order.
using SpanId = std::uint64_t;

/// A trace name, category or argument key.  Only a string literal binds (a
/// consteval constructor over `const char (&)[N]`), so the recorder keeps
/// the bare pointer: the text outlives every trace and costs no allocation.
class TraceKey {
 public:
  template <std::size_t N>
  consteval TraceKey(const char (&literal)[N]) : text_(literal) {}

  constexpr const char* c_str() const { return text_; }

 private:
  friend class TraceRecorder;
  struct Stored {};
  /// A key read back from the store (it was a literal when recorded).
  constexpr TraceKey(Stored, const char* text) : text_(text) {}

  const char* text_;
};

/// A trace argument's value, stored as recorded and formatted only at
/// export (formatTraceValue), so the request path never prints an address.
using TraceValue = std::variant<std::string, Ipv4, Endpoint, std::uint64_t,
                                PacketHeader, Error>;

/// The exported text of `value`: the string itself, `toString()` of an
/// address, packet header or error, or the decimal digits of an integer.
std::string formatTraceValue(const TraceValue& value);

/// One argument of an exported span or instant.
struct TraceArg {
  TraceKey key;
  TraceValue value;
};

using TraceArgs = std::vector<TraceArg>;

/// One argument of a recording call: a literal key and a value of any
/// TraceValue alternative.  Text (and a packet header or error) is borrowed
/// until the call returns -- the recorder copies what it keeps -- so
/// building the argument list never allocates.
class TraceArgRef {
 public:
  TraceArgRef(TraceKey key, const char* text);
  TraceArgRef(TraceKey key, const std::string& text);
  TraceArgRef(TraceKey key, Ipv4 ip);
  TraceArgRef(TraceKey key, Endpoint endpoint);
  TraceArgRef(TraceKey key, std::uint64_t number);
  TraceArgRef(TraceKey key, const PacketHeader& header);
  TraceArgRef(TraceKey key, const Error& error);
  TraceArgRef(TraceKey key, const TraceValue& value);

 private:
  friend class TraceRecorder;
  enum class Kind : std::uint8_t {
    kText, kIpv4, kEndpoint, kNumber, kPacket, kError
  };
  /// 24 bytes, the layout of a stored argument too.  `word` holds the
  /// integer, the packed address, or the address of the text / header /
  /// error (the caller's while recording, the recorder's once stored).
  struct Packed {
    const char* key;
    std::uint64_t word;
    std::uint32_t length;  // text length
    Kind kind;
  };

  Packed packed_;
};

using TraceArgList = std::initializer_list<TraceArgRef>;

struct TraceSpan {
  SpanId id = 0;
  SpanId parent = 0;        // enclosing span, 0 = top level
  RequestId request = 0;
  std::string name;         // "request", "resolve", "pull", "scaleup", ...
  std::string category;     // "client", "controller", "scheduler", "deploy"
  SimTime start;
  SimTime end;
  bool open = true;         // endSpan not yet seen
  TraceArgs args;           // beginSpan's, then endSpan's extras

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
  TraceRecorder() = default;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Disabled recorders turn every call into a no-op (and allocate nothing).
  void setEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // ---- recording (owner thread only) --------------------------------------
  RequestId newRequest();

  SpanId beginSpan(RequestId request, TraceKey name, TraceKey category,
                   SimTime now, TraceArgList args = {}, SpanId parent = 0);
  /// Close `span` at `now`; `extraArgs` export after beginSpan's.  0 and
  /// unknown IDs are ignored.
  void endSpan(SpanId span, SimTime now, TraceArgList extraArgs = {});
  /// Record a span whose start/end are both known (async completions).
  SpanId completeSpan(RequestId request, TraceKey name, TraceKey category,
                      SimTime start, SimTime end, TraceArgList args = {},
                      SpanId parent = 0);
  void instant(RequestId request, TraceKey name, TraceKey category,
               SimTime at, TraceArgList args = {});

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
  /// Every span / instant in recording order, built from the store.
  std::vector<TraceSpan> spans() const;
  std::vector<TraceInstant> instants() const;
  std::size_t spanCount() const { return spans_.size(); }
  /// The span `id` names, or nullopt for 0 and unknown IDs.
  std::optional<TraceSpan> spanById(SpanId id) const;
  /// Bytes the store has allocated: records, arguments, text, side stores.
  std::size_t storageBytes() const;

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
  using Packed = TraceArgRef::Packed;

  /// A span: 64 bytes.  Its arguments are two ranges of args_: beginSpan's
  /// and endSpan's extras, so closing a span never moves an argument.
  struct SpanRecord {
    RequestId request;
    SpanId parent;
    const char* name;
    const char* category;
    SimTime start;
    SimTime end;
    std::uint32_t beginFirst;
    std::uint32_t extraFirst;
    std::uint16_t beginCount;
    std::uint16_t extraCount;
    bool open;
  };
  /// An instant: 40 bytes.
  struct InstantRecord {
    RequestId request;
    const char* name;
    const char* category;
    SimTime at;
    std::uint32_t first;
    std::uint32_t count;
  };

  /// Copy `args` to the end of args_; returns the index of the first.
  std::uint32_t appendArgs(TraceArgList args);
  /// Stored copy of one argument: text, header and error move into the
  /// recorder's own storage.
  Packed store(const Packed& arg);
  /// Text of `length` chars at a stable address in the arena.
  const char* storeText(const char* text, std::size_t length);
  static TraceValue valueOf(const Packed& arg);
  void appendView(TraceArgs& out, std::uint32_t first,
                  std::uint32_t count) const;
  TraceSpan spanView(std::size_t index) const;

  OwnerThread owner_;
  bool enabled_ = true;
  RequestId nextRequest_ = 0;

  ChunkedStore<SpanRecord> spans_;
  ChunkedStore<InstantRecord> instants_;
  ChunkedStore<Packed> args_;
  ChunkedStore<PacketHeader> packets_;
  ChunkedStore<Error> errors_;
  std::vector<std::unique_ptr<char[]>> textChunks_;
  std::size_t textBytes_ = 0;
  char* textCursor_ = nullptr;
  std::size_t textFree_ = 0;

  /// Consumed bindings' nodes are kept and reused, so binding a flow
  /// allocates only while the number of unconsumed bindings grows.
  using Bindings = std::map<std::pair<Ipv4, Endpoint>, RequestId>;
  Bindings flowBindings_;
  std::vector<Bindings::node_type> spareBindings_;
};

}  // namespace edgesim::trace
