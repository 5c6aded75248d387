// Fig. 16-style warm-traffic run with live telemetry enabled end to end.
//
// Protocol: one cold request deploys nginx on the Docker EGS cluster, then
// 100 requests arrive 1.2 s apart.  The switch idle timeout is shortened
// to 200 ms so EVERY request packet-ins again, while FlowMemory (60 s idle)
// stays warm -- each of the 100 requests is a controller-side warm resolve.
// Periodic JSON + Prometheus snapshots are written every 5 s of sim time,
// an SLO watchdog runs with a generous budget (a healthy warm run must not
// breach), and at the end the final snapshot must reconcile EXACTLY with
// the Recorder / controller end-of-run numbers:
//   * warm/cold resolve histogram counts == recorder series counts,
//   * request-outcome counters == controller accessors,
//   * client-request counters == recorder client samples / failures,
//   * per-phase deploy histogram counts == recorder phase sample counts,
//   * the on-disk JSON snapshot round-trips, and the .prom file lints.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_output.hpp"
#include "core/testbed.hpp"
#include "ledger_check.hpp"
#include "telemetry/snapshot.hpp"
#include "util/strings.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::bench;
using namespace edgesim::timeliterals;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "RECONCILE FAIL: %s\n", what.c_str());
}

void checkEq(std::uint64_t got, std::uint64_t want, const std::string& what) {
  check(got == want,
        strprintf("%s: got %llu, want %llu", what.c_str(),
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want)));
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main() {
  const char* envDir = std::getenv("EDGESIM_TELEMETRY_OUT");
  const std::string dir = envDir != nullptr ? envDir : "telemetry-out";

  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.snapshotPeriod = 5_s;
  options.snapshotDir = dir;
  // Every request packet-ins (switch flows idle out between arrivals) but
  // resolves warm from FlowMemory (60 s idle, kept fresh by the
  // flow-removed touch and the periodic stats sync).
  options.controller.switchIdleTimeout = SimTime::millis(200);
  Testbed bed(options);

  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");

  telemetry::SloBudget budget;
  budget.name = "warm-resolve-p95";
  budget.service = "nginx";
  budget.histogram = "edgesim_resolve_seconds";
  budget.labels = {{"path", "warm"}};
  budget.quantile = 0.95;
  budget.latencyBudgetSeconds = 0.5;  // warm resolves are ~instant
  bed.watchdog().addBudget(budget);
  bed.watchdog().start(5_s);

  bool ready = false;
  bed.requestCatalog(0, "nginx", address, "warmup",
                     [&ready](Result<HttpExchange> r) { ready = r.ok(); });
  bed.sim().runUntil(60_s);
  ES_ASSERT(ready);

  // One client throughout: FlowMemory keys on (client, service), so a
  // single client keeps every post-warmup resolve on the warm path.  The
  // 1.2 s spacing clears the 200 ms switch idle timeout even at the
  // switch's 500 ms expiry-scan granularity, so every request packet-ins.
  constexpr std::size_t kRequests = 100;
  for (std::size_t i = 0; i < kRequests; ++i) {
    bed.sim().schedule(SimTime::millis(static_cast<std::int64_t>(1200 * i)),
                       [&bed, address] {
                         bed.requestCatalog(0, "nginx", address, "warm");
                       });
  }
  bed.sim().runUntil(60_s + SimTime::seconds(1.2 * kRequests) + 60_s);
  requireLedger(bed, "telemetry fig16");

  const auto* warm = bed.recorder().series("warm");
  ES_ASSERT(warm != nullptr && warm->count() == kRequests);

  // ---- on-demand final snapshot + reconciliation ---------------------------
  auto finalSnapshot = bed.snapshotWriter()->writeNow();
  ES_ASSERT(finalSnapshot.ok());
  const telemetry::TelemetrySnapshot& snap = finalSnapshot.value();
  EdgeController& controller = bed.controller();

  const auto* warmHist =
      snap.findHistogram("edgesim_resolve_seconds", {{"path", "warm"}});
  const auto* coldHist = snap.findHistogram(
      "edgesim_resolve_seconds", {{"path", "cold"}, {"service", "nginx"}});
  check(warmHist != nullptr, "warm resolve histogram present");
  check(coldHist != nullptr, "cold resolve histogram present");
  if (warmHist != nullptr) {
    checkEq(warmHist->count, kRequests, "warm resolve count == warm requests");
  }
  if (coldHist != nullptr) {
    checkEq(coldHist->count, 1, "cold resolve count == 1 (the warmup)");
  }

  checkEq(snap.counterValue("edgesim_requests_total",
                            {{"outcome", "resolved"}}),
          controller.requestsResolved(),
          "requests_total{resolved} == controller.requestsResolved");
  checkEq(controller.requestsResolved(), kRequests + 1,
          "controller resolved == 101");
  checkEq(snap.counterValue("edgesim_requests_total", {{"outcome", "failed"}}),
          controller.requestsFailed(),
          "requests_total{failed} == controller.requestsFailed");
  checkEq(snap.counterValue("edgesim_scale_downs_total"),
          controller.scaleDowns(),
          "scale_downs_total == controller.scaleDowns");

  // Client-side series vs. the Recorder: one sample per answered request.
  const auto* warmup = bed.recorder().series("warmup");
  checkEq(snap.counterValue("edgesim_client_requests_total",
                            {{"outcome", "ok"}}),
          (warmup != nullptr ? warmup->count() : 0) + warm->count(),
          "client ok counter == recorder client samples");
  checkEq(snap.counterValue("edgesim_client_requests_total",
                            {{"outcome", "error"}}),
          bed.recorder().failureCount(),
          "client error counter == recorder failures");
  const auto* clientHist =
      snap.findHistogram("edgesim_client_request_seconds");
  check(clientHist != nullptr, "client request histogram present");
  if (clientHist != nullptr) {
    checkEq(clientHist->count, kRequests + 1,
            "client histogram count == all measured requests");
  }

  // FlowMemory: one miss (warmup), one hit per warm packet-in.
  checkEq(snap.counterValue("edgesim_flow_memory_lookups_total",
                            {{"shard", "0"}, {"result", "hit"}}),
          kRequests, "flow memory hits == warm requests");
  checkEq(snap.counterValue("edgesim_flow_memory_lookups_total",
                            {{"shard", "0"}, {"result", "miss"}}),
          1, "flow memory misses == 1");

  // Deployment phase histograms vs. the Recorder's per-phase samples.
  for (const char* phase : {"pull", "create", "scaleup-cmd", "wait"}) {
    const auto* hist = snap.findHistogram(
        "edgesim_deploy_phase_seconds",
        {{"cluster", "docker-egs"}, {"phase", phase}});
    const auto* series =
        bed.recorder().series(std::string("nginx/docker-egs/") + phase);
    const std::uint64_t histCount = hist != nullptr ? hist->count : 0;
    const std::uint64_t seriesCount = series != nullptr ? series->count() : 0;
    checkEq(histCount, seriesCount,
            strprintf("phase histogram count (%s) == recorder series", phase));
  }
  check(snap.counterTotal("edgesim_scheduler_decisions_total") >= 1,
        "scheduler made at least one decision");

  // A healthy warm run must not breach the generous budget.
  checkEq(bed.watchdog().breaches().size(), 0, "no SLO breaches");

  // ---- on-disk formats ------------------------------------------------------
  const std::size_t written = bed.snapshotWriter()->written();
  check(written >= 20, strprintf("periodic snapshots written (%zu >= 20)",
                                 written));
  const std::filesystem::path lastJson =
      std::filesystem::path(dir) /
      strprintf("snapshot_%06llu.json",
                static_cast<unsigned long long>(snap.sequence));
  const std::filesystem::path lastProm =
      std::filesystem::path(dir) /
      strprintf("snapshot_%06llu.prom",
                static_cast<unsigned long long>(snap.sequence));
  check(std::filesystem::exists(lastJson), "final JSON snapshot on disk");
  check(std::filesystem::exists(lastProm), "final .prom snapshot on disk");
  if (std::filesystem::exists(lastJson)) {
    const auto doc = JsonValue::parse(readFile(lastJson));
    check(doc.ok(), "final JSON snapshot parses");
    if (doc.ok()) {
      const auto reread = telemetry::TelemetrySnapshot::fromJson(doc.value());
      check(reread.ok(), "final JSON snapshot round-trips via fromJson");
      if (reread.ok()) {
        checkEq(reread.value().counterValue("edgesim_requests_total",
                                            {{"outcome", "resolved"}}),
                controller.requestsResolved(),
                "re-read snapshot resolved counter");
        checkEq(reread.value().histogramCountTotal("edgesim_resolve_seconds"),
                kRequests + 1, "re-read snapshot resolve observations");
      }
    }
  }
  if (std::filesystem::exists(lastProm)) {
    const Status lint = telemetry::lintPrometheus(readFile(lastProm));
    check(lint.ok(), "final .prom snapshot lints" +
                         (lint.ok() ? std::string()
                                    : ": " + lint.error().toString()));
  }

  // ---- report ---------------------------------------------------------------
  metrics::BenchReport report("telemetry_fig16");
  report.setMeta("requests", std::to_string(kRequests));
  report.addSeries("warm", *warm);
  report.addScalar("warm/count", static_cast<double>(warm->count()));
  report.addScalar("cold/count", 1.0);
  report.addScalar("snapshots", static_cast<double>(written));
  report.addScalar("reconcile_failures", static_cast<double>(failures));
  writeBenchReport(report);

  std::printf("telemetry fig16: %zu warm + 1 cold requests, %zu snapshots "
              "in %s, %d reconciliation failures\n",
              kRequests, written, dir.c_str(), failures);
  return failures == 0 ? 0 : 1;
}
