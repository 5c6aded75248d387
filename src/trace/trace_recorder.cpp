#include "trace/trace_recorder.hpp"

#include <algorithm>
#include <charconv>
#include <unordered_map>

#include "util/strings.hpp"

namespace edgesim::trace {

namespace {

// SpanId layout: high bits select the per-thread buffer, low 40 bits hold
// the 1-based local index.  Buffer 0 therefore produces the dense 1-based
// IDs of the pre-threading recorder.
constexpr std::uint64_t kLocalBits = 40;
constexpr std::uint64_t kLocalMask = (std::uint64_t{1} << kLocalBits) - 1;

constexpr SpanId encodeSpanId(std::size_t buffer, std::size_t localIndex) {
  return (static_cast<SpanId>(buffer) << kLocalBits) |
         (static_cast<SpanId>(localIndex) + 1);
}

/// Each thread remembers which buffer it owns in each live recorder:
/// (buffer index, buffer pointer).  Keyed by a globally unique recorder ID
/// (never reused), so a recorder dying and another being allocated at the
/// same address cannot alias.  The pointer is type-erased because Buffer
/// is a private nested type.
thread_local std::unordered_map<std::uint64_t, std::pair<std::size_t, void*>>
    tlsBuffers;

std::uint64_t nextRecorderId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string formatTraceValue(const TraceValue& value) {
  struct Format {
    std::string operator()(const std::string& text) const { return text; }
    std::string operator()(Ipv4 ip) const { return ip.toString(); }
    std::string operator()(Endpoint endpoint) const {
      return endpoint.toString();
    }
    std::string operator()(std::uint64_t number) const {
      char text[20];
      return std::string(text, std::to_chars(text, text + 20, number).ptr);
    }
    std::string operator()(const PacketHeader& header) const {
      return header.toString();
    }
    std::string operator()(const Error& error) const {
      return error.toString();
    }
  };
  return std::visit(Format{}, value);
}

double RequestBreakdown::segmentSum() const {
  double sum = 0.0;
  for (const auto& [name, seconds] : segments) sum += seconds;
  return sum;
}

TraceRecorder::TraceRecorder() : id_(nextRecorderId()) {
  // The constructing thread (the simulation thread in every testbed) owns
  // buffer 0: its spans keep the seed's dense IDs and recording order.
  buffers_.push_back(std::make_unique<Buffer>());
  tlsBuffers[id_] = {0, buffers_.back().get()};
}

std::pair<std::size_t, TraceRecorder::Buffer*> TraceRecorder::myBuffer() {
  auto it = tlsBuffers.find(id_);
  if (it == tlsBuffers.end()) {
    std::lock_guard lock(buffersMutex_);
    const std::size_t index = buffers_.size();
    buffers_.push_back(std::make_unique<Buffer>());
    it = tlsBuffers
             .emplace(id_, std::make_pair(
                               index, static_cast<void*>(buffers_.back().get())))
             .first;
  }
  return {it->second.first, static_cast<Buffer*>(it->second.second)};
}

std::vector<TraceRecorder::Buffer*> TraceRecorder::bufferList() const {
  std::lock_guard lock(buffersMutex_);
  std::vector<Buffer*> list;
  list.reserve(buffers_.size());
  for (const auto& buffer : buffers_) list.push_back(buffer.get());
  return list;
}

RequestId TraceRecorder::newRequest() {
  if (!enabled()) return 0;
  return nextRequest_.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool TraceRecorder::admitEvent() {
  const std::size_t cap = maxEvents_.load(std::memory_order_relaxed);
  if (cap != 0 && eventCount_.load(std::memory_order_relaxed) >= cap) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  eventCount_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SpanId TraceRecorder::beginSpan(RequestId request, const std::string& name,
                                const std::string& category, SimTime now,
                                TraceArgs args, SpanId parent) {
  if (!enabled()) return 0;
  if (!admitEvent()) return 0;
  const auto [bufferIndex, bufferPtr] = myBuffer();
  Buffer& buffer = *bufferPtr;
  std::lock_guard lock(buffer.mutex);
  TraceSpan span;
  span.id = encodeSpanId(bufferIndex, buffer.spans.size());
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.category = category;
  span.start = now;
  span.end = now;
  span.args = std::move(args);
  buffer.spans.push_back(std::move(span));
  spanCount_.fetch_add(1, std::memory_order_relaxed);
  return buffer.spans.back().id;
}

void TraceRecorder::endSpan(SpanId span, SimTime now, TraceArgs extraArgs) {
  if (!enabled() || span == 0) return;
  const std::size_t bufferIndex = span >> kLocalBits;
  const std::uint64_t local = span & kLocalMask;
  if (local == 0) return;
  Buffer* buffer = nullptr;
  {
    std::lock_guard lock(buffersMutex_);
    if (bufferIndex >= buffers_.size()) return;
    buffer = buffers_[bufferIndex].get();
  }
  std::lock_guard lock(buffer->mutex);
  if (local > buffer->spans.size()) return;
  TraceSpan& s = buffer->spans[local - 1];
  s.end = now;
  s.open = false;
  s.args.reserve(s.args.size() + extraArgs.size());
  for (auto& arg : extraArgs) s.args.push_back(std::move(arg));
}

SpanId TraceRecorder::completeSpan(RequestId request, const std::string& name,
                                   const std::string& category, SimTime start,
                                   SimTime end, TraceArgs args, SpanId parent) {
  if (!enabled()) return 0;
  const SpanId id = beginSpan(request, name, category, start, std::move(args),
                              parent);
  endSpan(id, end);
  return id;
}

void TraceRecorder::instant(RequestId request, const std::string& name,
                            const std::string& category, SimTime at,
                            TraceArgs args) {
  if (!enabled()) return;
  if (!admitEvent()) return;
  Buffer& buffer = *myBuffer().second;
  std::lock_guard lock(buffer.mutex);
  buffer.instants.push_back({request, name, category, at, std::move(args)});
}

void TraceRecorder::bindFlow(Ipv4 client, Endpoint service, RequestId request) {
  if (!enabled()) return;
  std::lock_guard lock(bindingsMutex_);
  flowBindings_[{client, service}] = request;
}

RequestId TraceRecorder::clientRequestDone(Ipv4 client, Endpoint service,
                                           SimTime start, SimTime end,
                                           bool success,
                                           const std::string& series) {
  if (!enabled()) return 0;
  RequestId request = 0;
  bool bound = false;
  {
    std::lock_guard lock(bindingsMutex_);
    const auto it = flowBindings_.find({client, service});
    if (it != flowBindings_.end()) {
      request = it->second;
      bound = true;
      flowBindings_.erase(it);  // one client exchange per packet-in binding
    }
  }
  if (!bound) {
    // No controller interaction: the request rode already-installed switch
    // flows (warm path) -- it still gets its own timeline row.
    request = newRequest();
    instant(request, "warm-path", "client", start,
            {{"client", client}, {"service", service}});
  }
  completeSpan(request, "request", "client", start, end,
               {{"series", series},
                {"client", client},
                {"service", service},
                {"success", success ? "true" : "false"}});
  return request;
}

const TraceSpan* TraceRecorder::spanById(SpanId id) const {
  if (id == 0) return nullptr;
  const std::size_t bufferIndex = id >> kLocalBits;
  const std::uint64_t local = id & kLocalMask;
  if (local == 0) return nullptr;
  Buffer* buffer = nullptr;
  {
    std::lock_guard lock(buffersMutex_);
    if (bufferIndex >= buffers_.size()) return nullptr;
    buffer = buffers_[bufferIndex].get();
  }
  std::lock_guard lock(buffer->mutex);
  if (local > buffer->spans.size()) return nullptr;
  return &buffer->spans[local - 1];  // deque storage: pointer stays valid
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::vector<TraceSpan> merged;
  std::size_t populated = 0;
  for (Buffer* buffer : bufferList()) {
    std::lock_guard lock(buffer->mutex);
    if (!buffer->spans.empty()) ++populated;
    merged.insert(merged.end(), buffer->spans.begin(), buffer->spans.end());
  }
  if (populated <= 1) return merged;  // recording order == seed order
  // Multi-threaded recording: canonical content sort so the export does
  // not depend on thread interleaving.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start != b.start) return a.start < b.start;
                     if (a.request != b.request) return a.request < b.request;
                     if (a.category != b.category) return a.category < b.category;
                     if (a.name != b.name) return a.name < b.name;
                     return a.id < b.id;
                   });
  return merged;
}

std::vector<TraceInstant> TraceRecorder::instants() const {
  std::vector<TraceInstant> merged;
  std::size_t populated = 0;
  for (Buffer* buffer : bufferList()) {
    std::lock_guard lock(buffer->mutex);
    if (!buffer->instants.empty()) ++populated;
    merged.insert(merged.end(), buffer->instants.begin(),
                  buffer->instants.end());
  }
  if (populated <= 1) return merged;
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceInstant& a, const TraceInstant& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.request != b.request) return a.request < b.request;
                     if (a.category != b.category) return a.category < b.category;
                     return a.name < b.name;
                   });
  return merged;
}

// ---- export -----------------------------------------------------------------

namespace {

JsonValue argsObject(const TraceArgs& args) {
  JsonValue obj = JsonValue::object();
  for (const auto& [key, value] : args) {
    obj.set(key.c_str(), formatTraceValue(value));
  }
  return obj;
}

}  // namespace

JsonValue TraceRecorder::chromeTrace() const {
  const std::vector<TraceSpan> allSpans = spans();
  const std::vector<TraceInstant> allInstants = instants();

  // Close still-open spans at the maximum observed timestamp so the file
  // stays loadable even for aborted runs.
  SimTime maxTime = SimTime::zero();
  for (const auto& span : allSpans) {
    maxTime = std::max(maxTime, std::max(span.start, span.end));
  }
  for (const auto& i : allInstants) maxTime = std::max(maxTime, i.at);

  JsonValue events = JsonValue::array();

  JsonValue processName = JsonValue::object();
  processName.set("ph", "M");
  processName.set("pid", 1);
  processName.set("name", "process_name");
  JsonValue processArgs = JsonValue::object();
  processArgs.set("name", "edgesim");
  processName.set("args", std::move(processArgs));
  events.push(std::move(processName));

  std::vector<RequestId> requests;
  for (const auto& span : allSpans) requests.push_back(span.request);
  for (const auto& i : allInstants) requests.push_back(i.request);
  std::sort(requests.begin(), requests.end());
  requests.erase(std::unique(requests.begin(), requests.end()),
                 requests.end());
  for (const RequestId request : requests) {
    JsonValue threadName = JsonValue::object();
    threadName.set("ph", "M");
    threadName.set("pid", 1);
    threadName.set("tid", request);
    threadName.set("name", "thread_name");
    JsonValue nameArgs = JsonValue::object();
    nameArgs.set("name", request == 0 ? std::string("unattributed")
                                      : strprintf("request %llu",
                                                  static_cast<unsigned long long>(
                                                      request)));
    threadName.set("args", std::move(nameArgs));
    events.push(std::move(threadName));
  }

  for (const auto& span : allSpans) {
    const SimTime end = span.open ? maxTime : span.end;
    JsonValue event = JsonValue::object();
    event.set("name", span.name);
    event.set("cat", span.category);
    event.set("ph", "X");
    event.set("ts", span.start.toMicros());
    event.set("dur", (end - span.start).toMicros());
    event.set("pid", 1);
    event.set("tid", span.request);
    JsonValue args = argsObject(span.args);
    args.set("span_id", formatTraceValue(span.id));
    if (span.parent != 0) {
      args.set("parent_span", formatTraceValue(span.parent));
    }
    event.set("args", std::move(args));
    events.push(std::move(event));
  }

  for (const auto& i : allInstants) {
    JsonValue event = JsonValue::object();
    event.set("name", i.name);
    event.set("cat", i.category);
    event.set("ph", "i");
    event.set("s", "t");  // thread-scoped instant
    event.set("ts", i.at.toMicros());
    event.set("pid", 1);
    event.set("tid", i.request);
    event.set("args", argsObject(i.args));
    events.push(std::move(event));
  }

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

std::string TraceRecorder::chromeTraceJson(int indent) const {
  return chromeTrace().dump(indent);
}

std::vector<RequestBreakdown> TraceRecorder::breakdowns() const {
  const std::vector<TraceSpan> allSpans = spans();

  // Leaf spans (no children) are the phases; container spans ("deploy")
  // would double-count their nested Pull/Create/Scale-Up children.
  // Span IDs are sparse (buffer-encoded), so track parents in a set.
  std::vector<SpanId> parents;
  for (const auto& span : allSpans) {
    if (span.parent != 0) parents.push_back(span.parent);
  }
  std::sort(parents.begin(), parents.end());
  const auto hasChild = [&parents](SpanId id) {
    return std::binary_search(parents.begin(), parents.end(), id);
  };

  std::vector<RequestBreakdown> result;
  for (const auto& root : allSpans) {
    if (root.name != "request" || root.category != "client" || root.open) {
      continue;
    }
    RequestBreakdown breakdown;
    breakdown.request = root.request;
    breakdown.totalSeconds = root.duration().toSeconds();

    const TraceSpan* resolve = nullptr;
    for (const auto& span : allSpans) {
      if (span.request == root.request && span.name == "resolve" &&
          !span.open) {
        resolve = &span;
        break;
      }
    }
    if (resolve != nullptr) {
      // The three segments partition time_total exactly: all stamps come
      // from the one deterministic sim clock.
      breakdown.segments.emplace_back(
          "uplink", (resolve->start - root.start).toSeconds());
      breakdown.segments.emplace_back("resolve",
                                      resolve->duration().toSeconds());
      breakdown.segments.emplace_back("downlink",
                                      (root.end - resolve->end).toSeconds());
    } else {
      breakdown.segments.emplace_back("warm", breakdown.totalSeconds);
    }

    for (const auto& span : allSpans) {
      if (span.request != root.request || span.id == root.id || span.open) {
        continue;
      }
      if (resolve != nullptr && span.id == resolve->id) continue;
      if (hasChild(span.id)) continue;
      breakdown.phases.emplace_back(span.name, span.duration().toSeconds());
    }
    result.push_back(std::move(breakdown));
  }
  return result;
}

Table TraceRecorder::breakdownTable() const {
  Table table({"request", "total [s]", "uplink", "resolve", "downlink",
               "phases (name=seconds)"});
  for (const auto& breakdown : breakdowns()) {
    double uplink = 0.0, resolve = 0.0, downlink = 0.0;
    for (const auto& [name, seconds] : breakdown.segments) {
      if (name == "uplink") uplink = seconds;
      else if (name == "resolve") resolve = seconds;
      else if (name == "downlink" || name == "warm") downlink = seconds;
    }
    std::vector<std::string> phases;
    for (const auto& [name, seconds] : breakdown.phases) {
      phases.push_back(strprintf("%s=%.6f", name.c_str(), seconds));
    }
    table.addRow({strprintf("%llu",
                            static_cast<unsigned long long>(breakdown.request)),
                  strprintf("%.6f", breakdown.totalSeconds),
                  strprintf("%.6f", uplink), strprintf("%.6f", resolve),
                  strprintf("%.6f", downlink), join(phases, " ")});
  }
  return table;
}

std::map<std::string, Samples> TraceRecorder::phaseSamples() const {
  std::map<std::string, Samples> samples;
  for (const auto& breakdown : breakdowns()) {
    samples["trace/total"].add(breakdown.totalSeconds);
    for (const auto& [name, seconds] : breakdown.segments) {
      samples["trace/" + name].add(seconds);
    }
    for (const auto& [name, seconds] : breakdown.phases) {
      samples["trace/" + name].add(seconds);
    }
  }
  return samples;
}

}  // namespace edgesim::trace
