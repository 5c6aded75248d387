// Overload governor under a 10x cold flash crowd, in simulated time.
//
// 200 new clients arrive at 10x the base rate (20 req/s -> 200 req/s, one
// request every 5 ms) and each asks one of the four Table I services, none
// of which is deployed yet.  Every first packet reaches the controller
// (packet-in -> Dispatcher::resolve) and has to wait for an on-demand
// deployment that pulls its images.  Two legs on the same crowd:
//
//   governed     overload governor on with a 500 ms request budget: a
//                request still waiting when its budget runs out is shed
//                with a degraded cloud redirect, and sustained shedding
//                switches on brownout ("without waiting" cloud answers);
//   ungoverned   no governor: every request waits for its deployment,
//                and clients of the slowest image time out first.
//
// Latency is the controller's time to answer, packet-in -> redirect (the
// request's "resolve" trace span), over ALL requests, shed ones included:
// that is the quantity the budget bounds.  Everything runs on the
// simulation thread, so the report is byte-identical from run to run.
//
// The binary enforces its gates: the governed leg sheds something and
// every governed client gets its response; in both legs submitted ==
// resolved + failed + shed and the controller's shed count equals the
// governor's; governed p99 <= the request budget; ungoverned p99 >= 2x
// governed p99.
//
// The governed leg also drops one telemetry snapshot (writeNow) into
// $EDGESIM_TELEMETRY_OUT so CI can lint it and render the shed/breaker
// tables with `telemetry_top --once`.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_output.hpp"
#include "core/testbed.hpp"
#include "ledger_check.hpp"
#include "util/stats.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::timeliterals;

namespace {

constexpr std::size_t kClients = 200;
constexpr double kBaseRatePerSecond = 20.0;
constexpr double kCrowdMultiplier = 10.0;
constexpr SimTime kBudget = SimTime::millis(500);
const char* const kServices[] = {"asm", "nginx", "resnet", "nginx-py"};

struct LegResult {
  Samples latency;  // seconds, packet-in -> redirect, every request
  std::uint64_t submitted = 0;
  std::uint64_t resolved = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  std::size_t answered = 0;      // client callbacks
  std::size_t clientErrors = 0;  // of which failed (HTTP timeout)
};

LegResult runLeg(bool governed) {
  TestbedOptions options;
  options.seed = 1;
  options.clientCount = kClients;
  options.clusterMode = ClusterMode::kDockerOnly;
  if (governed) {
    options.controller.overload.enabled = true;
    options.controller.overload.requestBudget = kBudget;
    const char* envDir = std::getenv("EDGESIM_TELEMETRY_OUT");
    options.snapshotDir = envDir != nullptr ? envDir : "overload-telemetry-out";
    options.snapshotPeriod = SimTime::seconds(3600.0);  // writeNow() only
  }
  Testbed bed(options);
  for (std::size_t s = 0; s < std::size(kServices); ++s) {
    const Endpoint address(Ipv4(203, 0, 113, static_cast<std::uint8_t>(10 + s)),
                           80);
    ES_ASSERT(bed.registerCatalogService(kServices[s], address).ok());
  }

  LegResult result;
  const SimTime spacing =
      SimTime::seconds(1.0 / (kBaseRatePerSecond * kCrowdMultiplier));
  for (std::size_t i = 0; i < kClients; ++i) {
    const std::size_t s = i % std::size(kServices);
    const Endpoint address(Ipv4(203, 0, 113, static_cast<std::uint8_t>(10 + s)),
                           80);
    bed.sim().scheduleAt(1_s + spacing * static_cast<std::int64_t>(i),
                         [&bed, &result, i, s, address] {
                           bed.requestCatalog(
                               i, kServices[s], address, "crowd",
                               [&result](Result<HttpExchange> r) {
                                 ++result.answered;
                                 if (!r.ok()) ++result.clientErrors;
                               });
                         });
  }
  bed.sim().runUntil(300_s);
  bench::requireLedger(bed, "overload shedding");

  if (governed) {
    ES_ASSERT(bed.snapshotWriter() != nullptr);
    ES_ASSERT(bed.snapshotWriter()->writeNow().ok());
  }
  for (const auto& span : bed.trace().spans()) {
    if (span.name == "resolve" && !span.open) {
      result.latency.add(span.duration().toSeconds());
    }
  }
  const EdgeController& controller = bed.controller();
  result.submitted = controller.requestsSubmitted();
  result.resolved = controller.requestsResolved();
  result.shed = controller.requestsShed();
  result.failed = controller.requestsFailed();
  result.degraded = controller.requestsDegraded();

  // Exact accounting, every leg: nothing lost, nothing double-counted.
  ES_ASSERT(result.answered == kClients);
  ES_ASSERT(result.submitted == kClients);
  ES_ASSERT(result.latency.count() == kClients);
  ES_ASSERT(result.submitted == result.resolved + result.failed + result.shed);
  const overload::OverloadGovernor* gov = bed.governor();
  ES_ASSERT(result.shed == (gov != nullptr ? gov->shedCount() : 0));
  return result;
}

void printLeg(const char* name, const LegResult& leg) {
  std::printf("%-10s | %6llu | %6llu | %8llu | %8zu | %5.1f%% | %8.1f ms | "
              "%8.1f ms\n",
              name, static_cast<unsigned long long>(leg.submitted),
              static_cast<unsigned long long>(leg.shed),
              static_cast<unsigned long long>(leg.degraded), leg.clientErrors,
              100.0 * static_cast<double>(leg.shed) /
                  static_cast<double>(leg.submitted),
              leg.latency.median() * 1e3, leg.latency.p99() * 1e3);
}

}  // namespace

int main() {
  metrics::BenchReport report("overload_shedding");
  report.setMeta("clients", std::to_string(kClients));
  report.setMeta("base_rate_per_s", "20");
  report.setMeta("crowd_multiplier", "10");
  report.setMeta("request_budget_ms", "500");

  std::printf("leg        | submit |   shed | degraded | timeouts |  shed%% "
              "|   p50       |   p99\n");
  std::printf("-----------+--------+--------+----------+----------+--------"
              "+-------------+------------\n");
  const LegResult governed = runLeg(/*governed=*/true);
  printLeg("governed", governed);
  const LegResult ungoverned = runLeg(/*governed=*/false);
  printLeg("ungoverned", ungoverned);

  const double shedFraction = static_cast<double>(governed.shed) /
                              static_cast<double>(governed.submitted);
  report.addScalar("governed/shed_fraction", shedFraction);
  report.addScalar("governed/degraded", static_cast<double>(governed.degraded));
  report.addScalar("governed/p99_seconds", governed.latency.p99());
  report.addScalar("ungoverned/p99_seconds", ungoverned.latency.p99());
  report.addScalar("ungoverned/client_timeouts",
                   static_cast<double>(ungoverned.clientErrors));
  report.addSeries("governed/latency", governed.latency,
                   /*includeSamples=*/false);
  report.addSeries("ungoverned/latency", ungoverned.latency,
                   /*includeSamples=*/false);
  bench::writeBenchReport(report);

  int failures = 0;
  if (governed.shed == 0) {
    std::fprintf(stderr, "FAIL: governed leg shed nothing\n");
    ++failures;
  }
  if (governed.clientErrors != 0) {
    std::fprintf(stderr, "FAIL: %zu governed clients got no response\n",
                 governed.clientErrors);
    ++failures;
  }
  if (governed.latency.p99() > kBudget.toSeconds()) {
    std::fprintf(stderr, "FAIL: governed p99 %.1f ms exceeds the %.0f ms "
                 "request budget\n",
                 governed.latency.p99() * 1e3, kBudget.toSeconds() * 1e3);
    ++failures;
  }
  if (ungoverned.latency.p99() < 2.0 * governed.latency.p99()) {
    std::fprintf(stderr,
                 "FAIL: ungoverned p99 %.1f ms is not >= 2x governed "
                 "%.1f ms\n",
                 ungoverned.latency.p99() * 1e3, governed.latency.p99() * 1e3);
    ++failures;
  }
  if (failures == 0) {
    std::printf("overload check: shed %.1f%%, governed p99 %.1f ms (budget "
                "%.0f ms), ungoverned p99 %.1f ms\n",
                100.0 * shedFraction, governed.latency.p99() * 1e3,
                kBudget.toSeconds() * 1e3, ungoverned.latency.p99() * 1e3);
  }
  return failures == 0 ? 0 : 1;
}
