// Mobility handover baseline: the transparent-handover cost in sim time.
//
// A commute wave moves 20 clients from the EGS cell to the far-edge cell
// while they hold memorized flows.  The attachment scan detects each move
// and the controller re-steers the flow: with the target pre-deployed the
// switchover is a warm re-steer, and the continuity gap (re-steer commit ->
// stats-confirmed settle) is exactly one OpenFlow rule-install round trip.
// Without pre-deployment the first handovers deploy at the target before
// committing, so the *latency* grows by the deployment while the gap stays
// bounded -- the old instance keeps serving until the switch is re-steered.
//
// Gated scalars (bench_diff, +-10%): warm/cold continuity-gap and latency
// medians, plus the gap:RTT ratio the acceptance criterion pins to <= 1.
#include <cstdio>

#include "bench_output.hpp"
#include "core/testbed.hpp"
#include "ledger_check.hpp"
#include "mobility/attachment.hpp"
#include "mobility/handover.hpp"
#include "mobility/mobility_model.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/mobility_paths.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::timeliterals;

namespace {

constexpr std::size_t kClients = 20;
const Endpoint kAddr{Ipv4(203, 0, 113, 10), 80};

struct WaveResult {
  Samples warmGaps;     // seconds, reason == "warm"
  Samples warmLatency;  // seconds
  Samples coldGaps;     // seconds, reason == "deployed"
  Samples coldLatency;  // seconds
  Samples postMove;     // client-observed request total after the move
  std::size_t completed = 0;
  std::size_t aborted = 0;
  double ruleInstallRtt = 0.0;
};

WaveResult runWave(bool predeployTarget) {
  TestbedOptions options;
  options.seed = 23;
  options.clientCount = kClients;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  // Clients hold their flow across the whole wave (the default 60 s idle
  // timeout would expire the earliest flows mid-commute).
  options.controller.memoryIdleTimeout = 180_s;
  Testbed bed(options);
  bed.warmImageCache("nginx");
  ES_ASSERT(bed.registerCatalogService("nginx", kAddr).ok());

  WaveResult result;
  result.ruleInstallRtt = (bed.ovs().options().channelLatency +
                           bed.ovs().options().channelLatency)
                              .toSeconds();

  if (predeployTarget) {
    ES_ASSERT(bed.controller().predeploy(kAddr, "docker-far").ok());
    bed.sim().runUntil(30_s);
  }

  mobility::MobilityModel model({{"bs-egs", {0.0, 0.0}, "docker-egs"},
                                 {"bs-far", {1000.0, 0.0}, "docker-far"}});
  workload::CommuteWaveParams wave;
  wave.seed = 23;
  wave.clients = kClients;
  wave.origin = {0.0, 0.0};
  wave.destination = {1000.0, 0.0};
  wave.firstDeparture = 40_s;
  wave.departureWindow = 20_s;
  wave.travelTime = 10_s;
  const auto paths = workload::commuteWavePaths(wave);
  for (std::size_t i = 0; i < kClients; ++i) {
    model.setPath(clientAddress(i), paths[i]);
  }

  mobility::AttachmentManager attachments(bed.sim(), model,
                                          {.scanPeriod = 500_ms});
  mobility::HandoverManager handovers(bed.controller(), attachments);
  handovers.setResultListener([&result](Ipv4, const HandoverResult& r) {
    if (r.completed) {
      ++result.completed;
      const bool warm = std::string(r.reason) == "warm";
      (warm ? result.warmGaps : result.coldGaps)
          .add(r.continuityGap.toSeconds());
      (warm ? result.warmLatency : result.coldLatency)
          .add(r.latency.toSeconds());
    } else if (r.abortedToCloud) {
      ++result.aborted;
    }
  });
  handovers.start();

  // Establish one memorized flow per client before anyone moves.
  const SimTime base = bed.sim().now();
  for (std::size_t i = 0; i < kClients; ++i) {
    bed.sim().scheduleAt(base + SimTime::seconds(1.0 + 0.2 * double(i)),
                         [&bed, i] { bed.requestCatalog(i, "nginx", kAddr,
                                                        "pre-move"); });
  }
  // And one request per client right after its arrival: served warm from
  // the far edge through the unchanged service address.
  for (std::size_t i = 0; i < kClients; ++i) {
    const SimTime arrival = paths[i].waypoints.back().at + 2_s;
    bed.sim().scheduleAt(arrival, [&bed, i] {
      bed.requestCatalog(i, "nginx", kAddr, "post-move");
    });
  }
  bed.sim().runUntil(150_s);
  bench::requireLedger(bed, "mobility handover");

  if (const auto* series = bed.recorder().series("post-move")) {
    for (double v : series->values()) result.postMove.add(v);
  }
  return result;
}

}  // namespace

int main() {
  const WaveResult warm = runWave(/*predeployTarget=*/true);
  const WaveResult cold = runWave(/*predeployTarget=*/false);

  std::printf("Mobility handover: %zu-client commute wave, EGS cell -> "
              "far-edge cell, flows re-steered in place\n\n",
              kClients);
  Table table({"scenario", "handovers", "gap median [us]", "gap p95 [us]",
               "latency median [ms]", "post-move req median [ms]"});
  const auto us = [](double s) { return strprintf("%.1f", s * 1e6); };
  const auto ms = [](double s) { return strprintf("%.3f", s * 1e3); };
  table.addRow({"pre-deployed (warm re-steer)",
                strprintf("%zu", warm.completed), us(warm.warmGaps.median()),
                us(warm.warmGaps.p95()), ms(warm.warmLatency.median()),
                ms(warm.postMove.median())});
  table.addRow({"on-demand (deploy at target)",
                strprintf("%zu", cold.completed), us(cold.coldGaps.median()),
                us(cold.coldGaps.p95()), ms(cold.coldLatency.median()),
                ms(cold.postMove.median())});
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());

  const double rtt = warm.ruleInstallRtt;
  const double gapRatio = warm.warmGaps.median() / rtt;
  std::printf("\nrule-install RTT: %.1f us; warm continuity gap = %.2f x RTT "
              "(acceptance: <= 1)\n",
              rtt * 1e6, gapRatio);
  ES_ASSERT(warm.warmGaps.median() <= rtt);
  ES_ASSERT(warm.completed == kClients);
  ES_ASSERT(warm.aborted == 0);

  metrics::BenchReport report("mobility_handover");
  report.setMeta("seed", "23");
  report.setMeta("clients", strprintf("%zu", kClients));
  report.addScalar("warm/handovers", double(warm.completed));
  report.addScalar("warm/gap-median-us", warm.warmGaps.median() * 1e6);
  report.addScalar("warm/gap-p95-us", warm.warmGaps.p95() * 1e6);
  report.addScalar("warm/gap-to-rtt-ratio", gapRatio);
  report.addScalar("warm/latency-median-ms", warm.warmLatency.median() * 1e3);
  report.addScalar("warm/post-move-median-ms", warm.postMove.median() * 1e3);
  report.addScalar("cold/handovers", double(cold.completed));
  report.addScalar("cold/gap-median-us", cold.coldGaps.median() * 1e6);
  report.addScalar("cold/latency-median-ms", cold.coldLatency.median() * 1e3);
  report.addScalar("cold/post-move-median-ms", cold.postMove.median() * 1e3);
  edgesim::bench::writeBenchReport(report);

  std::printf("\nshape: the warm continuity gap is one rule-install RTT -- "
              "the flow keeps flowing on the old instance until the switch "
              "confirms the re-steered rules; deploying on demand stretches "
              "the handover latency, not the gap.\n");
  return 0;
}
