// Rule-reconciliation recovery bench: how fast the anti-entropy sweeper
// restores warm-path steering after a mid-run switch restart.
//
// Protocol: fig. 16's warm workload (nginx, cached image, instance already
// running) at a steady 20 req/s from rotating clients, with the reconciler
// sweeping every second.  At t=15.05s the switch restarts, silently wiping
// every flow entry.  Each request window measures the warm-hit rate -- the
// fraction of requests forwarded by an installed flow entry rather than
// punted to the controller (1 - packet-ins / requests).
//
// Gates (the binary exits nonzero if violated):
//   * the warm-hit rate two reconcile periods after the restart has
//     recovered to >= 95% of the pre-fault rate;
//   * zero permanently blackholed requests: every issued request is
//     answered ok, and the install books balance exactly
//     (sent == acked + timed_out, nothing pending).
#include <cstdio>
#include <vector>

#include "bench_output.hpp"
#include "core/rule_reconciler.hpp"
#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "ledger_check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace edgesim;
using namespace edgesim::bench;
using namespace edgesim::core;
using namespace edgesim::timeliterals;

int main() {
  constexpr double kPeriodSeconds = 1.0;   // reconcile sweep period
  constexpr double kRestartAt = 15.05;     // mid-window, off sweep ticks
  constexpr double kLoadStart = 1.0;
  constexpr double kLoadEnd = 26.0;
  constexpr std::int64_t kSpacingMs = 50;  // 20 req/s

  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.reconcilePeriod = SimTime::seconds(kPeriodSeconds);
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");

  fault::FaultPlan plan(1);
  fault::FaultSpec restart;
  restart.site = fault::FaultSite::kSwitchRestart;
  restart.target = "ovs";
  restart.at = SimTime::seconds(kRestartAt);
  plan.add(restart);
  bed.injectFaults(plan);

  // Bring the instance up, then drive the steady warm load.
  bool ready = false;
  bed.requestCatalog(0, "nginx", address, "warmup",
                     [&ready](Result<HttpExchange> r) { ready = r.ok(); });

  int issued = 0;
  int answered = 0;
  int failed = 0;
  std::vector<int> issuedInWindow;   // [window] = requests issued
  const auto windowOf = [&](double at) {
    return static_cast<std::size_t>(at);  // 1 s windows
  };
  for (double at = kLoadStart; at < kLoadEnd;
       at += static_cast<double>(kSpacingMs) / 1e3) {
    const std::size_t client = static_cast<std::size_t>(issued) %
                               bed.clientCount();
    const std::size_t window = windowOf(at);
    if (issuedInWindow.size() <= window) issuedInWindow.resize(window + 1, 0);
    ++issuedInWindow[window];
    ++issued;
    bed.sim().scheduleAt(SimTime::seconds(at), [&, client] {
      bed.requestCatalog(client, "nginx", address, "warm",
                         [&](Result<HttpExchange> r) {
                           if (r.ok()) {
                             ++answered;
                           } else {
                             ++failed;
                           }
                         });
    });
  }

  // Sample the controller's packet-in counter at every window boundary.
  const std::size_t windows = issuedInWindow.size() + 1;
  std::vector<std::uint64_t> packetIns(windows + 1, 0);
  for (std::size_t w = 0; w <= windows; ++w) {
    bed.sim().scheduleAt(SimTime::seconds(static_cast<double>(w)), [&, w] {
      packetIns[w] = bed.controller().packetInCount();
    });
  }

  bed.sim().runUntil(90_s);
  requireLedger(bed, "rule reconciliation");
  ES_ASSERT(ready);

  std::vector<double> warmRate(issuedInWindow.size(), 0.0);
  for (std::size_t w = 0; w < issuedInWindow.size(); ++w) {
    if (issuedInWindow[w] == 0) continue;
    const double punted =
        static_cast<double>(packetIns[w + 1] - packetIns[w]);
    warmRate[w] = 1.0 - punted / static_cast<double>(issuedInWindow[w]);
  }

  // Pre-fault rate: the five full windows before the restart.
  double preRate = 0.0;
  const std::size_t restartWindow = windowOf(kRestartAt);
  for (std::size_t w = restartWindow - 5; w < restartWindow; ++w) {
    preRate += warmRate[w];
  }
  preRate /= 5.0;
  // Recovery window: the first full window beyond restart + 2 periods.
  const std::size_t recoveryWindow =
      static_cast<std::size_t>(kRestartAt + 2.0 * kPeriodSeconds) + 1;
  const double recoveredRate = warmRate[recoveryWindow];

  const auto& ctrl = bed.controller();
  const auto* reconciler = bed.controller().reconciler();
  ES_ASSERT(reconciler != nullptr);

  Table table({"window [s]", "requests", "warm-hit rate"});
  for (std::size_t w = restartWindow - 3;
       w < std::min(issuedInWindow.size(), recoveryWindow + 3); ++w) {
    table.addRow({strprintf("%zu-%zu", w, w + 1),
                  strprintf("%d", issuedInWindow[w]),
                  strprintf("%.3f", warmRate[w])});
  }
  std::printf("Rule reconciliation: warm-hit recovery after a switch "
              "restart at t=%.2fs (sweep period %.0fs)\n\n",
              kRestartAt, kPeriodSeconds);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "pre-fault warm rate %.3f  recovery-window rate %.3f  "
      "restarts %llu  sweeps %llu  reinstalled %llu  resynthesized %llu\n"
      "requests issued %d answered %d failed %d  flowmods sent %llu "
      "acked %llu timed out %llu\n",
      preRate, recoveredRate,
      static_cast<unsigned long long>(bed.ovs().restartCount()),
      static_cast<unsigned long long>(reconciler->stats().sweeps),
      static_cast<unsigned long long>(reconciler->stats().flowsReinstalled),
      static_cast<unsigned long long>(
          reconciler->stats().flowRemovedResynthesized),
      issued, answered, failed,
      static_cast<unsigned long long>(ctrl.flowModsSent()),
      static_cast<unsigned long long>(ctrl.flowModsAcked()),
      static_cast<unsigned long long>(ctrl.flowModsTimedOut()));

  metrics::BenchReport report("rule_reconciliation");
  report.setMeta("restart_at_s", strprintf("%.2f", kRestartAt));
  report.setMeta("reconcile_period_s", strprintf("%.0f", kPeriodSeconds));
  Samples rates;
  for (std::size_t w = 1; w < warmRate.size(); ++w) {
    rates.add(warmRate[w]);
  }
  report.addSeries("warm_hit_rate/windows", rates);
  report.addScalar("warm_hit_rate/pre_fault", preRate);
  report.addScalar("warm_hit_rate/recovered", recoveredRate);
  report.addScalar("requests/issued", issued);
  report.addScalar("requests/answered", answered);
  report.addScalar("reconcile/sweeps",
                   static_cast<double>(reconciler->stats().sweeps));
  report.addScalar("reconcile/reinstalled",
                   static_cast<double>(reconciler->stats().flowsReinstalled));
  report.addScalar("flowmods/sent", static_cast<double>(ctrl.flowModsSent()));
  report.addScalar("flowmods/acked",
                   static_cast<double>(ctrl.flowModsAcked()));
  writeBenchReport(report);

  // ---- gates ----
  int rc = 0;
  if (bed.ovs().restartCount() != 1) {
    std::fprintf(stderr, "GATE: restart did not fire\n");
    rc = 1;
  }
  if (recoveredRate < 0.95 * preRate) {
    std::fprintf(stderr,
                 "GATE: warm-hit rate %.3f in the recovery window did not "
                 "reach 95%% of the pre-fault rate %.3f\n",
                 recoveredRate, preRate);
    rc = 1;
  }
  if (answered != issued || failed != 0) {
    std::fprintf(stderr,
                 "GATE: blackholed requests (issued %d answered %d "
                 "failed %d)\n",
                 issued, answered, failed);
    rc = 1;
  }
  if (ctrl.flowModsSent() != ctrl.flowModsAcked() + ctrl.flowModsTimedOut() ||
      ctrl.pendingInstallCount() != 0) {
    std::fprintf(stderr, "GATE: install accounting out of balance\n");
    rc = 1;
  }
  return rc;
}
