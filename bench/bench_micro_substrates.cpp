// Micro-benchmarks (google-benchmark) for the hot substrate paths: event
// queue scheduling, OpenFlow table lookup at various sizes, yamlite
// parsing, RNG draws, and FlowMemory operations.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench_output.hpp"
#include "core/controller.hpp"
#include "core/flow_memory.hpp"
#include "openflow/flow_table.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "yamlite/parse.hpp"

namespace {

using namespace edgesim;
using namespace edgesim::timeliterals;

/// Repetitions per benchmark: each is one sample of its series, so the
/// reports carry a spread, not a single number.
constexpr int kRepetitions = 5;

/// Each iteration schedules one event 1 us ahead and dispatches it.
void scheduleAndDispatch(benchmark::State& state, Simulation& sim) {
  std::int64_t counter = 0;
  for (auto _ : state) {
    sim.schedule(1_us, [&counter] { ++counter; });
    sim.step();
  }
  benchmark::DoNotOptimize(counter);
}

/// Schedule one event and dispatch it, with `range(0)` live far-future
/// entries queued behind it: 60000 is the depth of warm_250's heap.
void BM_EventScheduleDispatch(benchmark::State& state) {
  Simulation sim;
  const SimTime far = SimTime::seconds(1e6);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sim.schedule(far + SimTime::nanos(i), [] {});
  }
  scheduleAndDispatch(state, sim);
}
BENCHMARK(BM_EventScheduleDispatch)
    ->Repetitions(kRepetitions)
    ->Arg(0)
    ->Arg(60000);

/// The same loop behind `range(0)` cancelled 120 s timers: the shape of
/// warm_250's heap, where each connection's TCP total timer is cancelled
/// when the request completes but stays queued until its time comes.
void BM_EventScheduleDispatchCancelledTimers(benchmark::State& state) {
  Simulation sim;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sim.schedule(120_s + SimTime::nanos(i), [] {}).cancel();
  }
  scheduleAndDispatch(state, sim);
}
BENCHMARK(BM_EventScheduleDispatchCancelledTimers)
    ->Repetitions(kRepetitions)
    ->Arg(60000);

void BM_EventQueueBurst(benchmark::State& state) {
  const auto burst = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    std::int64_t counter = 0;
    for (int i = 0; i < burst; ++i) {
      sim.schedule(SimTime::micros(i % 97), [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_EventQueueBurst)
    ->Repetitions(kRepetitions)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);

/// A flow table of `size` entries in the controller's four match shapes,
/// installed round-robin: background {ip_dst} at priority 1,
/// unregistered-destination {ip_dst} at 10, and the per-client forward
/// {ip_src, ip_dst, ip_proto, tcp_dst} and reverse {ip_src, tcp_src, ip_dst,
/// ip_proto} redirects at kRedirectPriority.  Returns the packet whose only
/// match is the deepest entry in table order (the last background route),
/// so a linear scan would walk the whole table and a classifier must probe
/// every group.
Packet controllerShapedTable(openflow::FlowTable& table, int size) {
  const Endpoint service(Ipv4(203, 0, 113, 10), 80);
  const Endpoint instance(Ipv4(10, 1, 0, 5), 30080);
  const auto nth = [](Ipv4 base, int i) {
    return Ipv4(base.value + static_cast<std::uint32_t>(i));
  };
  const auto client = [&nth](int i) { return nth(Ipv4(10, 2, 0, 0), i); };
  Ipv4 deepest;
  for (int i = 0; i < size; ++i) {
    openflow::FlowEntry entry;
    entry.actions = {openflow::OutputAction{1}};
    switch (i % 4) {
      case 0:
        entry.priority = 1;
        entry.match.ipDst = client(i);
        deepest = client(i);
        break;
      case 1:
        entry.priority = 10;
        entry.match.ipDst = nth(Ipv4(203, 0, 114, 0), i);
        break;
      case 2:
        entry.priority = core::kRedirectPriority;
        entry.match = openflow::FlowMatch::anyToService(service);
        entry.match.ipSrc = client(i);
        break;
      default:
        entry.priority = core::kRedirectPriority;
        entry.match.ipSrc = instance.ip;
        entry.match.tcpSrc = instance.port;
        entry.match.ipDst = client(i);
        entry.match.ipProto = IpProto::kTcp;
        break;
    }
    table.upsert(std::move(entry), SimTime::zero());
  }
  return makeSyn(Mac(1), Endpoint(Ipv4(10, 9, 9, 9), 40000),
                 Endpoint(deepest, 80));
}

void BM_FlowTableLookup(benchmark::State& state) {
  openflow::FlowTable table;
  const Packet packet =
      controllerShapedTable(table, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(packet, 0, SimTime::zero()));
  }
}
BENCHMARK(BM_FlowTableLookup)
    ->Repetitions(kRepetitions)
    ->Arg(16)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(131072);

void BM_YamlParseDeployment(benchmark::State& state) {
  const std::string yaml = R"(apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
spec:
  replicas: 1
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
)";
  for (auto _ : state) {
    auto result = yamlite::parse(yaml);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(yaml.size()));
}
BENCHMARK(BM_YamlParseDeployment)->Repetitions(kRepetitions);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform01());
  }
}
BENCHMARK(BM_RngUniform)->Repetitions(kRepetitions);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(1000, 1.1));
  }
}
BENCHMARK(BM_RngZipf)->Repetitions(kRepetitions);

void BM_FlowMemoryLookup(benchmark::State& state) {
  core::FlowMemory memory(60_s);
  for (int i = 0; i < 1000; ++i) {
    memory.upsert(Ipv4(10, 0, static_cast<std::uint8_t>(i / 250),
                       static_cast<std::uint8_t>(i % 250 + 1)),
                  Endpoint(Ipv4(203, 0, 113, 10), 80),
                  Endpoint(Ipv4(10, 0, 1, 1), static_cast<std::uint16_t>(30000 + i)),
                  "docker-egs", SimTime::zero());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memory.lookup(Ipv4(10, 0, 2, 17), Endpoint(Ipv4(203, 0, 113, 10), 80)));
  }
}
BENCHMARK(BM_FlowMemoryLookup)->Repetitions(kRepetitions);

/// Console output as usual, plus one BENCH_micro_substrates.json series per
/// benchmark whose samples are its repetitions (adjusted real time, in
/// seconds); the mean/median/stddev rows are left out.
class ReportingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      // Series keep the benchmark's name without its "/repeats:N" part.
      benchmark::BenchmarkName name = run.run_name;
      name.repetitions.clear();
      // Default time unit is nanoseconds; none of the benches override it.
      samples_[name.str()].add(run.GetAdjustedRealTime() * 1e-9);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  edgesim::metrics::BenchReport report() const {
    edgesim::metrics::BenchReport report{"micro_substrates"};
    report.addSeriesMap(samples_);
    return report;
  }

 private:
  std::map<std::string, edgesim::Samples> samples_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ReportingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  edgesim::bench::writeBenchReport(reporter.report());
  return 0;
}
