// Tests for TraceRecorder's compact one-writer store:
//
//   * an oracle property: random interleavings of every recording call,
//     with every TraceValue alternative, export exactly what a naive
//     reference gives -- a vector of TraceSpan / TraceInstant values with
//     its own copy of the export code, the recorder's model before the
//     compact store; closing span 0 or an unknown span changes nothing;
//   * an allocation pin: recording requests shaped like pathbench's
//     reinstall_250 (5 events, 17 arguments, one 19-character string each)
//     allocates almost nothing once warm, and stays within 0.8 KB of store
//     per request.  This binary links
//     edgesim_alloc_count, which replaces the global operator new to count
//     allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "net/packet.hpp"
#include "trace/trace_recorder.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace edgesim::trace {
namespace {

using namespace edgesim::timeliterals;

// A name or category is a literal TraceKey: neither a std::string nor a
// const char* variable binds.
template <typename Name>
concept InstantNameBinds = requires(TraceRecorder& recorder, Name name) {
  recorder.instant(0, name, "test", SimTime::zero());
};
template <typename Category>
concept SpanCategoryBinds = requires(TraceRecorder& recorder, Category cat) {
  recorder.beginSpan(0, "test", cat, SimTime::zero());
};
static_assert(InstantNameBinds<const char (&)[5]>);
static_assert(!InstantNameBinds<const char*>);
static_assert(!InstantNameBinds<std::string>);
static_assert(!InstantNameBinds<const std::string&>);
static_assert(SpanCategoryBinds<const char (&)[5]>);
static_assert(!SpanCategoryBinds<const char*>);
static_assert(!SpanCategoryBinds<std::string>);

// -------------------------------------------------------- the reference ----

/// The recorder before the compact store: owned TraceSpan / TraceInstant
/// values in two vectors, endSpan appending its extras to the span's args.
class ReferenceRecorder {
 public:
  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceInstant>& instants() const { return instants_; }

  RequestId newRequest() { return ++nextRequest_; }

  SpanId beginSpan(RequestId request, const char* name, const char* category,
                   SimTime now, TraceArgs args, SpanId parent) {
    TraceSpan span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request = request;
    span.name = name;
    span.category = category;
    span.start = now;
    span.end = now;
    span.args = std::move(args);
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void endSpan(SpanId id, SimTime now, const TraceArgs& extras) {
    if (id == 0 || id > spans_.size()) return;
    TraceSpan& span = spans_[id - 1];
    span.end = now;
    span.open = false;
    span.args.insert(span.args.end(), extras.begin(), extras.end());
  }

  SpanId completeSpan(RequestId request, const char* name,
                      const char* category, SimTime start, SimTime end,
                      TraceArgs args, SpanId parent) {
    const SpanId id =
        beginSpan(request, name, category, start, std::move(args), parent);
    endSpan(id, end, {});
    return id;
  }

  void instant(RequestId request, const char* name, const char* category,
               SimTime at, TraceArgs args) {
    instants_.push_back({request, name, category, at, std::move(args)});
  }

  void bindFlow(Ipv4 client, Endpoint service, RequestId request) {
    bindings_[{client, service}] = request;
  }

  RequestId clientRequestDone(Ipv4 client, Endpoint service, SimTime start,
                              SimTime end, bool success,
                              const std::string& series) {
    RequestId request = 0;
    if (const auto it = bindings_.find({client, service});
        it != bindings_.end()) {
      request = it->second;
      bindings_.erase(it);
    } else {
      request = newRequest();
      instant(request, "warm-path", "client", start,
              {{"client", client}, {"service", service}});
    }
    completeSpan(request, "request", "client", start, end,
                 {{"series", series},
                  {"client", client},
                  {"service", service},
                  {"success", std::string(success ? "true" : "false")}},
                 0);
    return request;
  }

  // ---- export, as the recorder implemented it ----

  std::string chromeTraceJson() const {
    SimTime maxTime = SimTime::zero();
    for (const auto& span : spans_) {
      maxTime = std::max(maxTime, std::max(span.start, span.end));
    }
    for (const auto& i : instants_) maxTime = std::max(maxTime, i.at);

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
    for (const auto& span : spans_) requests.push_back(span.request);
    for (const auto& i : instants_) requests.push_back(i.request);
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
      nameArgs.set("name", request == 0
                               ? std::string("unattributed")
                               : strprintf("request %llu",
                                           static_cast<unsigned long long>(
                                               request)));
      threadName.set("args", std::move(nameArgs));
      events.push(std::move(threadName));
    }
    const auto argsObject = [](const TraceArgs& args) {
      JsonValue obj = JsonValue::object();
      for (const auto& [key, value] : args) {
        obj.set(key.c_str(), formatTraceValue(value));
      }
      return obj;
    };
    for (const auto& span : spans_) {
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
    for (const auto& i : instants_) {
      JsonValue event = JsonValue::object();
      event.set("name", i.name);
      event.set("cat", i.category);
      event.set("ph", "i");
      event.set("s", "t");
      event.set("ts", i.at.toMicros());
      event.set("pid", 1);
      event.set("tid", i.request);
      event.set("args", argsObject(i.args));
      events.push(std::move(event));
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc.dump(0);
  }

  std::vector<RequestBreakdown> breakdowns() const {
    std::vector<SpanId> parents;
    for (const auto& span : spans_) {
      if (span.parent != 0) parents.push_back(span.parent);
    }
    std::sort(parents.begin(), parents.end());
    std::vector<RequestBreakdown> result;
    for (const auto& root : spans_) {
      if (root.name != "request" || root.category != "client" || root.open) {
        continue;
      }
      RequestBreakdown breakdown;
      breakdown.request = root.request;
      breakdown.totalSeconds = root.duration().toSeconds();
      const TraceSpan* resolve = nullptr;
      for (const auto& span : spans_) {
        if (span.request == root.request && span.name == "resolve" &&
            !span.open) {
          resolve = &span;
          break;
        }
      }
      if (resolve != nullptr) {
        breakdown.segments.emplace_back(
            "uplink", (resolve->start - root.start).toSeconds());
        breakdown.segments.emplace_back("resolve",
                                        resolve->duration().toSeconds());
        breakdown.segments.emplace_back(
            "downlink", (root.end - resolve->end).toSeconds());
      } else {
        breakdown.segments.emplace_back("warm", breakdown.totalSeconds);
      }
      for (const auto& span : spans_) {
        if (span.request != root.request || span.id == root.id || span.open) {
          continue;
        }
        if (resolve != nullptr && span.id == resolve->id) continue;
        if (std::binary_search(parents.begin(), parents.end(), span.id)) {
          continue;
        }
        breakdown.phases.emplace_back(span.name, span.duration().toSeconds());
      }
      result.push_back(std::move(breakdown));
    }
    return result;
  }

  std::string breakdownTable() const {
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
      table.addRow(
          {strprintf("%llu",
                     static_cast<unsigned long long>(breakdown.request)),
           strprintf("%.6f", breakdown.totalSeconds),
           strprintf("%.6f", uplink), strprintf("%.6f", resolve),
           strprintf("%.6f", downlink), join(phases, " ")});
    }
    return table.render();
  }

  std::map<std::string, std::vector<double>> phaseSamples() const {
    std::map<std::string, std::vector<double>> samples;
    for (const auto& breakdown : breakdowns()) {
      samples["trace/total"].push_back(breakdown.totalSeconds);
      for (const auto& [name, seconds] : breakdown.segments) {
        samples["trace/" + name].push_back(seconds);
      }
      for (const auto& [name, seconds] : breakdown.phases) {
        samples["trace/" + name].push_back(seconds);
      }
    }
    return samples;
  }

 private:
  RequestId nextRequest_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  std::map<std::pair<Ipv4, Endpoint>, RequestId> bindings_;
};

std::map<std::string, std::vector<double>> sampleValues(
    const std::map<std::string, Samples>& samples) {
  std::map<std::string, std::vector<double>> values;
  for (const auto& [name, s] : samples) values[name] = s.values();
  return values;
}

// ------------------------------------------------------ random workload ----

constexpr TraceKey kNames[] = {"request", "resolve", "pull",   "create",
                               "scaleup", "wait",    "deploy", "packet-in"};
constexpr TraceKey kCategories[] = {"client", "controller", "deploy",
                                    "scheduler"};
constexpr TraceKey kKeys[] = {"client", "service", "instance", "ok",
                              "error",  "packet",  "retries",  "series"};

/// Makes the same random calls on a TraceRecorder and on the reference.
class RandomCalls {
 public:
  explicit RandomCalls(std::uint64_t seed) : rng_(seed) {}

  void step(TraceRecorder& store, ReferenceRecorder& ref) {
    now_ = now_ + SimTime::micros(static_cast<std::int64_t>(
                      rng_.uniformInt(0, 5000)));
    const TraceKey name = kNames[rng_.uniformInt(0, std::size(kNames) - 1)];
    const TraceKey category =
        kCategories[rng_.uniformInt(0, std::size(kCategories) - 1)];
    const RequestId request =
        requests_.empty() || rng_.chance(0.1)
            ? 0
            : requests_[rng_.uniformInt(0, requests_.size() - 1)];
    std::vector<TraceArg> args = randomArgs();
    std::vector<TraceArgRef> refs;
    for (const TraceArg& arg : args) refs.emplace_back(arg.key, arg.value);

    switch (rng_.uniformInt(0, 7)) {
      case 0: {
        const RequestId a = store.newRequest();
        EXPECT_EQ(a, ref.newRequest());
        requests_.push_back(a);
        break;
      }
      case 1: {
        const SpanId parent = randomSpan();
        const SpanId a = withArgs(refs, [&](TraceArgList list) {
          return store.beginSpan(request, name, category, now_, list, parent);
        });
        EXPECT_EQ(a, ref.beginSpan(request, name.c_str(), category.c_str(),
                                   now_, args, parent));
        if (a != 0) spans_.push_back(a);
        break;
      }
      case 2: {
        // A known span (open or already closed), 0 or an unknown ID.
        const SpanId span = randomSpan();
        withArgs(refs, [&](TraceArgList list) {
          store.endSpan(span, now_, list);
          return 0;
        });
        ref.endSpan(span, now_, args);
        break;
      }
      case 3: {
        const SimTime start =
            now_ - SimTime::micros(static_cast<std::int64_t>(
                       rng_.uniformInt(0, 3000)));
        const SpanId parent = randomSpan();
        const SpanId a = withArgs(refs, [&](TraceArgList list) {
          return store.completeSpan(request, name, category, start, now_,
                                    list, parent);
        });
        EXPECT_EQ(a, ref.completeSpan(request, name.c_str(),
                                      category.c_str(), start, now_, args,
                                      parent));
        if (a != 0) spans_.push_back(a);
        break;
      }
      case 4:
      case 5:
        withArgs(refs, [&](TraceArgList list) {
          store.instant(request, name, category, now_, list);
          return 0;
        });
        ref.instant(request, name.c_str(), category.c_str(), now_, args);
        break;
      case 6:
        store.bindFlow(client(), service(), request);
        ref.bindFlow(lastClient_, lastService_, request);
        break;
      case 7: {
        const SimTime start =
            now_ - SimTime::micros(static_cast<std::int64_t>(
                       rng_.uniformInt(0, 3000)));
        const bool success = rng_.chance(0.8);
        const std::string series = randomText();
        const RequestId a = store.clientRequestDone(client(), service(), start,
                                                    now_, success, series);
        EXPECT_EQ(a, ref.clientRequestDone(lastClient_, lastService_, start,
                                           now_, success, series));
        break;
      }
    }
  }

 private:
  /// Calls `record` with `refs` as a braced argument list.
  template <typename Record>
  static SpanId withArgs(const std::vector<TraceArgRef>& refs,
                         Record&& record) {
    switch (refs.size()) {
      case 0:
        return record({});
      case 1:
        return record({refs[0]});
      case 2:
        return record({refs[0], refs[1]});
      case 3:
        return record({refs[0], refs[1], refs[2]});
      default:
        return record({refs[0], refs[1], refs[2], refs[3]});
    }
  }

  std::string randomText() {
    // Empty, short (inside std::string's small buffer) and long texts.
    const std::size_t length = rng_.chance(0.15) ? 0 : rng_.uniformInt(1, 40);
    std::string text;
    for (std::size_t i = 0; i < length; ++i) {
      text.push_back(static_cast<char>('a' + rng_.uniformInt(0, 25)));
    }
    return text;
  }

  TraceValue randomValue() {
    const Ipv4 ip(static_cast<std::uint32_t>(rng_()));
    switch (rng_.uniformInt(0, 5)) {
      case 0:
        return randomText();
      case 1:
        return ip;
      case 2:
        return Endpoint(ip, static_cast<std::uint16_t>(rng_()));
      case 3:
        return rng_();
      case 4: {
        PacketHeader header;
        header.src = Endpoint(ip, static_cast<std::uint16_t>(rng_()));
        header.dst = Endpoint(Ipv4(static_cast<std::uint32_t>(rng_())), 80);
        header.flags = static_cast<std::uint8_t>(rng_.uniformInt(0, 31));
        header.bytes = rng_.uniformInt(0, 1500);
        return header;
      }
      default:
        return makeError(static_cast<Errc>(rng_.uniformInt(0, 9)),
                         randomText());
    }
  }

  std::vector<TraceArg> randomArgs() {
    std::vector<TraceArg> args;
    const std::size_t count = rng_.uniformInt(0, 4);
    for (std::size_t i = 0; i < count; ++i) {
      args.push_back(
          {kKeys[rng_.uniformInt(0, std::size(kKeys) - 1)], randomValue()});
    }
    return args;
  }

  SpanId randomSpan() {
    if (spans_.empty() || rng_.chance(0.15)) {
      return rng_.chance(0.5) ? 0 : spans_.size() + 1000;
    }
    return spans_[rng_.uniformInt(0, spans_.size() - 1)];
  }

  Ipv4 client() {
    lastClient_ =
        Ipv4(10, 0, 2, static_cast<std::uint8_t>(rng_.uniformInt(1, 4)));
    return lastClient_;
  }
  Endpoint service() {
    lastService_ =
        Endpoint(Ipv4(203, 0, 113, 10),
                 static_cast<std::uint16_t>(rng_.uniformInt(80, 81)));
    return lastService_;
  }

  Rng rng_;
  SimTime now_ = SimTime::zero();
  std::vector<RequestId> requests_;
  std::vector<SpanId> spans_;
  Ipv4 lastClient_;
  Endpoint lastService_;
};

class TraceStoreOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(TraceStoreOracleProperty, ExportsMatchTheReference) {
  TraceRecorder store;
  ReferenceRecorder ref;
  RandomCalls calls(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 1500; ++i) calls.step(store, ref);

  EXPECT_EQ(store.spanCount(), ref.spans().size());
  EXPECT_EQ(store.instants().size(), ref.instants().size());
  EXPECT_FALSE(ref.breakdowns().empty());  // the breakdowns are exercised
  EXPECT_EQ(store.chromeTraceJson(), ref.chromeTraceJson());
  EXPECT_EQ(store.breakdownTable().render(), ref.breakdownTable());
  EXPECT_EQ(sampleValues(store.phaseSamples()), ref.phaseSamples());
  // spanById views the same span as spans().
  for (const TraceSpan& span : store.spans()) {
    const auto byId = store.spanById(span.id);
    ASSERT_TRUE(byId.has_value());
    EXPECT_EQ(byId->name, span.name);
    EXPECT_EQ(byId->args.size(), span.args.size());
  }
  EXPECT_FALSE(store.spanById(0).has_value());
  EXPECT_FALSE(store.spanById(store.spanCount() + 1).has_value());

  // endSpan of 0, or of an ID no span has yet, is a no-op.
  const std::string before = store.chromeTraceJson();
  store.endSpan(0, 1_s, {{"late", "true"}});
  store.endSpan(store.spanCount() + 1, 1_s, {{"late", "true"}});
  EXPECT_EQ(store.chromeTraceJson(), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceStoreOracleProperty,
                         ::testing::Range(1, 21));

// ------------------------------------------------------- allocations ----

/// One request as reinstall_250 records it: packet-in, resolve span,
/// FlowMemory hit, flow install, client root span -- 5 events and 17
/// arguments, the resolve span carrying a 19-character service name.
void recordReinstallRequest(TraceRecorder& trace, std::size_t i,
                            const std::string& serviceName,
                            const std::string& cluster,
                            const std::string& series) {
  const Ipv4 client(10, 0, 2, static_cast<std::uint8_t>(1 + i % 250));
  const Endpoint service(Ipv4(203, 0, 113, 10), 80);
  const Endpoint instance(Ipv4(10, 0, 1, 1), 30001);
  const SimTime now = SimTime::millis(static_cast<std::int64_t>(i));
  PacketHeader packet;
  packet.src = Endpoint(client, 40000);
  packet.dst = service;
  packet.flags = 0x02;

  const RequestId rid = trace.newRequest();
  trace.bindFlow(client, service, rid);
  trace.instant(rid, "packet-in", "controller", now,
                {{"client", client}, {"service", service}, {"packet", packet}});
  const SpanId span = trace.beginSpan(rid, "resolve", "controller", now,
                                      {{"service", serviceName}});
  trace.instant(rid, "flow-memory-hit", "controller", now,
                {{"instance", instance}, {"cluster", cluster}});
  trace.endSpan(span, now + 1_ms,
                {{"ok", "true"},
                 {"instance", instance},
                 {"cluster", cluster},
                 {"from_memory", "true"},
                 {"degraded", "false"}});
  trace.instant(rid, "flow-install", "controller", now + 1_ms,
                {{"instance", instance}, {"cluster", cluster}});
  trace.clientRequestDone(client, service, now - 1_ms, now + 2_ms, true,
                          series);
}

TEST(TraceStoreAllocations, ReinstallShapedRequestsAllocateAlmostNothing) {
  TraceRecorder trace;
  const std::string serviceName = "nginx-203-0-113-10x";  // 19 characters
  ASSERT_EQ(serviceName.size(), 19u);
  const std::string cluster = "docker-egs";
  const std::string series = "nginx/packet-in";
  for (std::size_t i = 0; i < 1000; ++i) {
    recordReinstallRequest(trace, i, serviceName, cluster, series);
  }

  constexpr std::size_t kRequests = 10000;
  const std::uint64_t before = threadAllocations();
  for (std::size_t i = 0; i < kRequests; ++i) {
    recordReinstallRequest(trace, i, serviceName, cluster, series);
  }
  const auto allocations =
      static_cast<double>(threadAllocations() - before);
  const double events = static_cast<double>(kRequests) * 5;
  EXPECT_LT(allocations / events, 0.05)
      << allocations << " allocations for " << events << " events";
  EXPECT_EQ(trace.spanCount(), (1000 + kRequests) * 2);
  // The byte budget: at most 0.8 KB of store per request.
  EXPECT_LE(trace.storageBytes(), (1000 + kRequests) * 800);
}

}  // namespace
}  // namespace edgesim::trace
