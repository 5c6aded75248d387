#include "trace/trace_recorder.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace edgesim::trace {

namespace {

constexpr std::size_t kTextChunkBytes = 64 * 1024;

static_assert(sizeof(TraceArgRef) == 24);

std::uint64_t addressWord(const void* address) {
  return reinterpret_cast<std::uintptr_t>(address);
}

template <typename T>
const T* wordAddress(std::uint64_t word) {
  return reinterpret_cast<const T*>(static_cast<std::uintptr_t>(word));
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

// ---- TraceArgRef ------------------------------------------------------------

TraceArgRef::TraceArgRef(TraceKey key, const char* text)
    : packed_{key.c_str(), addressWord(text),
              static_cast<std::uint32_t>(std::strlen(text)), Kind::kText} {}

TraceArgRef::TraceArgRef(TraceKey key, const std::string& text)
    : packed_{key.c_str(), addressWord(text.data()),
              static_cast<std::uint32_t>(text.size()), Kind::kText} {}

TraceArgRef::TraceArgRef(TraceKey key, Ipv4 ip)
    : packed_{key.c_str(), ip.value, 0, Kind::kIpv4} {}

TraceArgRef::TraceArgRef(TraceKey key, Endpoint endpoint)
    : packed_{key.c_str(),
              (std::uint64_t{endpoint.ip.value} << 16) | endpoint.port, 0,
              Kind::kEndpoint} {}

TraceArgRef::TraceArgRef(TraceKey key, std::uint64_t number)
    : packed_{key.c_str(), number, 0, Kind::kNumber} {}

TraceArgRef::TraceArgRef(TraceKey key, const PacketHeader& header)
    : packed_{key.c_str(), addressWord(&header), 0, Kind::kPacket} {}

TraceArgRef::TraceArgRef(TraceKey key, const Error& error)
    : packed_{key.c_str(), addressWord(&error), 0, Kind::kError} {}

TraceArgRef::TraceArgRef(TraceKey key, const TraceValue& value)
    : packed_(std::visit(
          [key](const auto& alternative) {
            return TraceArgRef(key, alternative).packed_;
          },
          value)) {}

// ---- recording --------------------------------------------------------------

RequestId TraceRecorder::newRequest() {
  if (!enabled_) return 0;
  owner_.check("TraceRecorder");
  return ++nextRequest_;
}

const char* TraceRecorder::storeText(const char* text, std::size_t length) {
  if (length > textFree_) {
    // A new chunk; the old one's tail stays unused.  Text longer than a
    // chunk gets a chunk of its own size.
    const std::size_t size = std::max(kTextChunkBytes, length);
    textChunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
    textBytes_ += size;
    textCursor_ = textChunks_.back().get();
    textFree_ = size;
  }
  char* out = textCursor_;
  if (length != 0) std::memcpy(out, text, length);
  textCursor_ += length;
  textFree_ -= length;
  return out;
}

TraceRecorder::Packed TraceRecorder::store(const Packed& arg) {
  using Kind = TraceArgRef::Kind;
  Packed stored = arg;
  switch (arg.kind) {
    case Kind::kText:
      stored.word =
          addressWord(storeText(wordAddress<char>(arg.word), arg.length));
      break;
    case Kind::kPacket:
      stored.word = addressWord(
          &packets_.push_back(*wordAddress<PacketHeader>(arg.word)));
      break;
    case Kind::kError:
      stored.word =
          addressWord(&errors_.push_back(*wordAddress<Error>(arg.word)));
      break;
    case Kind::kIpv4:
    case Kind::kEndpoint:
    case Kind::kNumber:
      break;
  }
  return stored;
}

std::uint32_t TraceRecorder::appendArgs(TraceArgList args) {
  ES_ASSERT(args.size() <= UINT16_MAX &&
            args_.size() + args.size() <= UINT32_MAX);
  const auto first = static_cast<std::uint32_t>(args_.size());
  for (const TraceArgRef& arg : args) args_.push_back(store(arg.packed_));
  return first;
}

SpanId TraceRecorder::beginSpan(RequestId request, TraceKey name,
                                TraceKey category, SimTime now,
                                TraceArgList args, SpanId parent) {
  if (!enabled_) return 0;
  owner_.check("TraceRecorder");
  SpanRecord record;
  record.request = request;
  record.parent = parent;
  record.name = name.c_str();
  record.category = category.c_str();
  record.start = now;
  record.end = now;
  record.beginFirst = appendArgs(args);
  record.beginCount = static_cast<std::uint16_t>(args.size());
  record.extraFirst = 0;
  record.extraCount = 0;
  record.open = true;
  spans_.push_back(record);
  return spans_.size();
}

void TraceRecorder::endSpan(SpanId span, SimTime now, TraceArgList extraArgs) {
  if (!enabled_ || span == 0) return;
  owner_.check("TraceRecorder");
  if (span > spans_.size()) return;
  SpanRecord& record = spans_[span - 1];
  record.end = now;
  record.open = false;
  if (extraArgs.size() == 0) return;
  ES_ASSERT(record.extraCount + extraArgs.size() <= UINT16_MAX);
  if (record.extraCount == 0) {
    record.extraFirst = appendArgs(extraArgs);
  } else {
    // A second endSpan with extras: keep all extras one range, copying the
    // earlier ones to the end unless nothing was recorded since.
    if (record.extraFirst + record.extraCount != args_.size()) {
      const auto first = static_cast<std::uint32_t>(args_.size());
      for (std::uint32_t i = 0; i < record.extraCount; ++i) {
        args_.push_back(args_[record.extraFirst + i]);
      }
      record.extraFirst = first;
    }
    appendArgs(extraArgs);
  }
  record.extraCount =
      static_cast<std::uint16_t>(record.extraCount + extraArgs.size());
}

SpanId TraceRecorder::completeSpan(RequestId request, TraceKey name,
                                   TraceKey category, SimTime start,
                                   SimTime end, TraceArgList args,
                                   SpanId parent) {
  if (!enabled_) return 0;
  const SpanId id = beginSpan(request, name, category, start, args, parent);
  endSpan(id, end);
  return id;
}

void TraceRecorder::instant(RequestId request, TraceKey name,
                            TraceKey category, SimTime at, TraceArgList args) {
  if (!enabled_) return;
  owner_.check("TraceRecorder");
  instants_.push_back({request, name.c_str(), category.c_str(), at,
                       appendArgs(args),
                       static_cast<std::uint32_t>(args.size())});
}

void TraceRecorder::bindFlow(Ipv4 client, Endpoint service, RequestId request) {
  if (!enabled_) return;
  owner_.check("TraceRecorder");
  const std::pair key(client, service);
  const auto it = flowBindings_.lower_bound(key);
  if (it != flowBindings_.end() && it->first == key) {
    it->second = request;
    return;
  }
  if (spareBindings_.empty()) {
    flowBindings_.emplace_hint(it, key, request);
    return;
  }
  Bindings::node_type node = std::move(spareBindings_.back());
  spareBindings_.pop_back();
  node.key() = key;
  node.mapped() = request;
  flowBindings_.insert(it, std::move(node));
}

RequestId TraceRecorder::clientRequestDone(Ipv4 client, Endpoint service,
                                           SimTime start, SimTime end,
                                           bool success,
                                           const std::string& series) {
  if (!enabled_) return 0;
  owner_.check("TraceRecorder");
  RequestId request = 0;
  if (const auto it = flowBindings_.find({client, service});
      it != flowBindings_.end()) {
    request = it->second;
    // One client exchange per packet-in binding; the node is reused.
    spareBindings_.push_back(flowBindings_.extract(it));
  } else {
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

// ---- access -----------------------------------------------------------------

TraceValue TraceRecorder::valueOf(const Packed& arg) {
  using Kind = TraceArgRef::Kind;
  switch (arg.kind) {
    case Kind::kText:
      return arg.length == 0
                 ? std::string()
                 : std::string(wordAddress<char>(arg.word), arg.length);
    case Kind::kIpv4:
      return Ipv4(static_cast<std::uint32_t>(arg.word));
    case Kind::kEndpoint:
      return Endpoint(Ipv4(static_cast<std::uint32_t>(arg.word >> 16)),
                      static_cast<std::uint16_t>(arg.word & 0xFFFF));
    case Kind::kNumber:
      return arg.word;
    case Kind::kPacket:
      return *wordAddress<PacketHeader>(arg.word);
    case Kind::kError:
      return *wordAddress<Error>(arg.word);
  }
  return std::string();
}

void TraceRecorder::appendView(TraceArgs& out, std::uint32_t first,
                               std::uint32_t count) const {
  for (std::uint32_t i = first; i < first + count; ++i) {
    const Packed& arg = args_[i];
    out.push_back({TraceKey(TraceKey::Stored{}, arg.key), valueOf(arg)});
  }
}

TraceSpan TraceRecorder::spanView(std::size_t index) const {
  const SpanRecord& record = spans_[index];
  TraceSpan span;
  span.id = index + 1;
  span.parent = record.parent;
  span.request = record.request;
  span.name = record.name;
  span.category = record.category;
  span.start = record.start;
  span.end = record.end;
  span.open = record.open;
  span.args.reserve(record.beginCount + record.extraCount);
  appendView(span.args, record.beginFirst, record.beginCount);
  appendView(span.args, record.extraFirst, record.extraCount);
  return span;
}

std::optional<TraceSpan> TraceRecorder::spanById(SpanId id) const {
  if (id == 0 || id > spans_.size()) return std::nullopt;
  return spanView(id - 1);
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::vector<TraceSpan> all;
  all.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) all.push_back(spanView(i));
  return all;
}

std::vector<TraceInstant> TraceRecorder::instants() const {
  std::vector<TraceInstant> all;
  all.reserve(instants_.size());
  for (std::size_t i = 0; i < instants_.size(); ++i) {
    const InstantRecord& record = instants_[i];
    TraceInstant instant;
    instant.request = record.request;
    instant.name = record.name;
    instant.category = record.category;
    instant.at = record.at;
    instant.args.reserve(record.count);
    appendView(instant.args, record.first, record.count);
    all.push_back(std::move(instant));
  }
  return all;
}

std::size_t TraceRecorder::storageBytes() const {
  static_assert(sizeof(SpanRecord) == 64 && sizeof(InstantRecord) == 40);
  return spans_.capacityBytes() + instants_.capacityBytes() +
         args_.capacityBytes() + packets_.capacityBytes() +
         errors_.capacityBytes() + textBytes_;
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
  // would double-count their nested Pull/Create/Scale-Up children.  Span
  // IDs are dense, so a flag per ID marks the parents.
  std::vector<bool> isParent(allSpans.size() + 1, false);
  for (const auto& span : allSpans) {
    if (span.parent <= allSpans.size()) isParent[span.parent] = true;
  }
  const auto hasChild = [&isParent](SpanId id) { return isParent[id]; };
  // Each request's spans in recording order, so a root visits only its own
  // request's spans instead of every span.
  std::unordered_map<RequestId, std::vector<const TraceSpan*>> byRequest;
  for (const auto& span : allSpans) byRequest[span.request].push_back(&span);

  std::vector<RequestBreakdown> result;
  for (const auto& root : allSpans) {
    if (root.name != "request" || root.category != "client" || root.open) {
      continue;
    }
    RequestBreakdown breakdown;
    breakdown.request = root.request;
    breakdown.totalSeconds = root.duration().toSeconds();
    const std::vector<const TraceSpan*>& mine = byRequest.at(root.request);

    const TraceSpan* resolve = nullptr;
    for (const TraceSpan* span : mine) {
      if (span->name == "resolve" && !span->open) {
        resolve = span;
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

    for (const TraceSpan* span : mine) {
      if (span->id == root.id || span->open) continue;
      if (resolve != nullptr && span->id == resolve->id) continue;
      if (hasChild(span->id)) continue;
      breakdown.phases.emplace_back(span->name, span->duration().toSeconds());
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
