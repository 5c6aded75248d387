// telemetry_top: terminal viewer for edgesim telemetry snapshots.
//
// Usage:
//   telemetry_top [dir] [--interval <seconds>] [--once]
//   telemetry_top --lint <file.prom>...
//
// Top mode tails a snapshot directory (as written by telemetry::SnapshotWriter
// or `bench_telemetry_fig16`): every refresh it picks the highest-sequence
// snapshot_*.json, parses it and renders request / shard / phase /
// overload-governor / handover / control-channel / SLO health tables.
// Sections whose series are absent are skipped, and so are the handover and
// control-channel sections while their counters are zero.  `--once` renders
// a single frame and exits (useful in CI or for post-mortem inspection of a
// finished run).
//
// Lint mode validates Prometheus text exposition files against
// telemetry::lintPrometheus and exits nonzero on the first malformed file --
// CI runs this over the .prom snapshots a bench produced.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/snapshot.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace edgesim;
using namespace edgesim::telemetry;

namespace {

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string labelValue(const Labels& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return std::string();
}

std::string fmtQuantileMs(const SnapshotHistogram& hist, double q) {
  const double value = hist.quantile(q);
  if (std::isnan(value)) return "-";
  return strprintf("%.2f", value * 1e3);
}

std::string fmtCount(std::uint64_t value) {
  return std::to_string(static_cast<unsigned long long>(value));
}

/// Highest-sequence snapshot_NNNNNN.json in `dir`; filenames are
/// zero-padded, so the lexicographic max is the numeric max.
std::optional<std::filesystem::path> findLatest(const std::string& dir) {
  std::optional<std::filesystem::path> best;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("snapshot_") || !name.ends_with(".json")) continue;
    if (!best || best->filename().string() < name) best = entry.path();
  }
  return best;
}

void renderRequests(const TelemetrySnapshot& snap, std::string& out) {
  Table outcomes({"outcome", "requests"});
  for (const auto& counter : snap.counters) {
    if (counter.name != "edgesim_requests_total") continue;
    outcomes.addRow({labelValue(counter.labels, "outcome"),
                     fmtCount(counter.value)});
  }
  Table resolve({"path", "service", "count", "p50 (ms)", "p95 (ms)"});
  for (const auto& hist : snap.histograms) {
    if (hist.name != "edgesim_resolve_seconds") continue;
    const std::string service = labelValue(hist.labels, "service");
    resolve.addRow({labelValue(hist.labels, "path"),
                    service.empty() ? "-" : service, fmtCount(hist.count),
                    fmtQuantileMs(hist, 0.5), fmtQuantileMs(hist, 0.95)});
  }
  if (outcomes.rowCount() + resolve.rowCount() == 0) return;
  out += "requests\n";
  if (outcomes.rowCount() > 0) out += outcomes.render();
  if (resolve.rowCount() > 0) out += resolve.render();
  out += "\n";
}

void renderShards(const TelemetrySnapshot& snap, std::string& out) {
  struct ShardRow {
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    double flows = 0.0;
  };
  std::map<std::string, ShardRow> shards;  // ordered by shard id string
  for (const auto& counter : snap.counters) {
    const std::string shard = labelValue(counter.labels, "shard");
    if (shard.empty()) continue;
    if (counter.name == "edgesim_flow_memory_lookups_total") {
      if (labelValue(counter.labels, "result") == "hit") {
        shards[shard].hits += counter.value;
      } else {
        shards[shard].misses += counter.value;
      }
    } else if (counter.name == "edgesim_flow_memory_evictions_total") {
      shards[shard].evictions += counter.value;
    }
  }
  for (const auto& gauge : snap.gauges) {
    if (gauge.name != "edgesim_flow_memory_flows") continue;
    shards[labelValue(gauge.labels, "shard")].flows = gauge.value;
  }
  if (shards.empty()) return;
  Table table({"shard", "flows", "hits", "misses", "evictions"});
  for (const auto& [shard, row] : shards) {
    table.addRow({shard, strprintf("%.0f", row.flows), fmtCount(row.hits),
                  fmtCount(row.misses), fmtCount(row.evictions)});
  }
  out += "flow memory shards\n" + table.render() + "\n";
}

void renderPhases(const TelemetrySnapshot& snap, std::string& out) {
  Table table({"cluster", "phase", "count", "p50 (ms)", "p95 (ms)"});
  for (const auto& hist : snap.histograms) {
    if (hist.name != "edgesim_deploy_phase_seconds") continue;
    table.addRow({labelValue(hist.labels, "cluster"),
                  labelValue(hist.labels, "phase"), fmtCount(hist.count),
                  fmtQuantileMs(hist, 0.5), fmtQuantileMs(hist, 0.95)});
  }
  if (table.rowCount() == 0) return;
  out += "deployment phases\n" + table.render();
  out += strprintf(
      "deploys %llu  retries %llu  fallbacks %llu  quarantines %llu\n\n",
      static_cast<unsigned long long>(
          snap.counterTotal("edgesim_deploys_total")),
      static_cast<unsigned long long>(
          snap.counterTotal("edgesim_deploy_retries_total")),
      static_cast<unsigned long long>(
          snap.counterTotal("edgesim_deploy_fallbacks_total")),
      static_cast<unsigned long long>(
          snap.counterTotal("edgesim_deploy_quarantines_total")));
}

void renderOverload(const TelemetrySnapshot& snap, std::string& out) {
  Table sheds({"shed reason", "requests"});
  for (const auto& counter : snap.counters) {
    if (counter.name != "edgesim_shed_total") continue;
    sheds.addRow({labelValue(counter.labels, "reason"),
                  fmtCount(counter.value)});
  }
  Table breakers({"cluster", "state", "opens", "short circuits"});
  struct BreakerRow {
    double state = 0.0;
    std::uint64_t opens = 0, shortCircuits = 0;
  };
  std::map<std::string, BreakerRow> byCluster;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name != "edgesim_breaker_state") continue;
    byCluster[labelValue(gauge.labels, "cluster")].state = gauge.value;
  }
  for (const auto& counter : snap.counters) {
    if (counter.name == "edgesim_breaker_transitions_total" &&
        labelValue(counter.labels, "to") == "open") {
      byCluster[labelValue(counter.labels, "cluster")].opens += counter.value;
    } else if (counter.name == "edgesim_breaker_short_circuits_total") {
      byCluster[labelValue(counter.labels, "cluster")].shortCircuits +=
          counter.value;
    }
  }
  for (const auto& [cluster, row] : byCluster) {
    const char* state = row.state >= 2.0   ? "half-open"
                        : row.state >= 1.0 ? "OPEN"
                                           : "closed";
    breakers.addRow({cluster, state, fmtCount(row.opens),
                     fmtCount(row.shortCircuits)});
  }
  const auto* brownout = snap.findGauge("edgesim_brownout_active");
  if (sheds.rowCount() + breakers.rowCount() == 0 && brownout == nullptr) {
    return;
  }
  out += "overload governor\n";
  if (sheds.rowCount() > 0) out += sheds.render();
  if (breakers.rowCount() > 0) out += breakers.render();
  out += strprintf(
      "brownout %s  brownout redirects %llu  deploy tokens in use %.0f\n\n",
      brownout != nullptr && brownout->value >= 1.0 ? "ACTIVE" : "off",
      static_cast<unsigned long long>(
          snap.counterTotal("edgesim_brownout_redirects_total")),
      snap.findGauge("edgesim_deploy_tokens_in_use") != nullptr
          ? snap.findGauge("edgesim_deploy_tokens_in_use")->value
          : 0.0);
}

void renderHandovers(const TelemetrySnapshot& snap, std::string& out) {
  Table table({"outcome", "handovers"});
  for (const auto& counter : snap.counters) {
    if (counter.name != "edgesim_handovers_total") continue;
    table.addRow({labelValue(counter.labels, "outcome"),
                  fmtCount(counter.value)});
  }
  const auto* latency = snap.findHistogram("edgesim_handover_latency_seconds");
  const auto* gap =
      snap.findHistogram("edgesim_handover_continuity_gap_seconds");
  // The series exist from construction, at zero: nothing to show for a
  // mobility-free run.
  if (snap.counterTotal("edgesim_handovers_total") == 0 &&
      (latency == nullptr || latency->count == 0)) {
    return;
  }
  out += "mobility handovers\n";
  if (table.rowCount() > 0) out += table.render();
  Table timings({"metric", "count", "p50 (ms)", "p95 (ms)"});
  if (latency != nullptr) {
    timings.addRow({"latency", fmtCount(latency->count),
                    fmtQuantileMs(*latency, 0.5),
                    fmtQuantileMs(*latency, 0.95)});
  }
  if (gap != nullptr) {
    timings.addRow({"continuity gap", fmtCount(gap->count),
                    fmtQuantileMs(*gap, 0.5), fmtQuantileMs(*gap, 0.95)});
  }
  if (timings.rowCount() > 0) out += timings.render();
  out += "\n";
}

void renderControlChannel(const TelemetrySnapshot& snap, std::string& out) {
  // Per-switch channel health: drops by direction, restarts, buffer
  // evictions.  The switch registers these lazily on the first fault, so a
  // clean run renders nothing.
  struct SwitchRow {
    std::uint64_t dropsC2s = 0, dropsS2c = 0, restarts = 0, evictions = 0;
  };
  std::map<std::string, SwitchRow> bySwitch;
  for (const auto& counter : snap.counters) {
    const std::string sw = labelValue(counter.labels, "switch");
    if (sw.empty()) continue;
    if (counter.name == "edgesim_ctrl_channel_dropped_total") {
      if (labelValue(counter.labels, "direction") == "c2s") {
        bySwitch[sw].dropsC2s += counter.value;
      } else {
        bySwitch[sw].dropsS2c += counter.value;
      }
    } else if (counter.name == "edgesim_switch_restarts_total") {
      bySwitch[sw].restarts += counter.value;
    } else if (counter.name == "edgesim_switch_buffer_evictions_total") {
      bySwitch[sw].evictions += counter.value;
    }
  }
  Table switches({"switch", "drops c2s", "drops s2c", "restarts",
                  "buffer evictions"});
  for (const auto& [sw, row] : bySwitch) {
    switches.addRow({sw, fmtCount(row.dropsC2s), fmtCount(row.dropsS2c),
                     fmtCount(row.restarts), fmtCount(row.evictions)});
  }

  // Acked-install state machine: acked vs timed out, retries, failovers.
  std::uint64_t acked = 0, timedOut = 0;
  for (const auto& counter : snap.counters) {
    if (counter.name != "edgesim_ctrl_channel_acks_total") continue;
    if (labelValue(counter.labels, "result") == "acked") {
      acked += counter.value;
    } else {
      timedOut += counter.value;
    }
  }
  const auto retries = snap.counterTotal("edgesim_ctrl_channel_retries_total");
  const auto failovers =
      snap.counterTotal("edgesim_ctrl_channel_failovers_total");

  // Anti-entropy sweeps: drift found/repaired plus sweep latency tail.
  const auto sweeps = snap.counterTotal("edgesim_reconcile_sweeps_total");
  const auto* sweepHist = snap.findHistogram("edgesim_reconcile_sweep_seconds");
  // The acked-install series exist from construction and count acks on
  // every run; only a timeout makes the state machine worth showing.
  const bool haveAcks = timedOut + retries + failovers > 0;
  if (switches.rowCount() == 0 && !haveAcks && sweeps == 0) return;

  out += "control channel\n";
  if (switches.rowCount() > 0) out += switches.render();
  if (haveAcks) {
    out += strprintf("flowmods acked %llu  timed out %llu  retries %llu  "
                     "failovers %llu\n",
                     static_cast<unsigned long long>(acked),
                     static_cast<unsigned long long>(timedOut),
                     static_cast<unsigned long long>(retries),
                     static_cast<unsigned long long>(failovers));
  }
  if (sweeps > 0) {
    std::uint64_t missing = 0, orphans = 0;
    for (const auto& counter : snap.counters) {
      if (counter.name != "edgesim_reconcile_drift_detected_total") continue;
      if (labelValue(counter.labels, "kind") == "missing") {
        missing += counter.value;
      } else {
        orphans += counter.value;
      }
    }
    out += strprintf(
        "reconcile sweeps %llu  drift missing %llu  orphans %llu  "
        "reinstalled %llu  deleted %llu  resynthesized %llu  "
        "stats timeouts %llu  sweep p99 %s ms\n",
        static_cast<unsigned long long>(sweeps),
        static_cast<unsigned long long>(missing),
        static_cast<unsigned long long>(orphans),
        static_cast<unsigned long long>(
            snap.counterTotal("edgesim_reconcile_rules_reinstalled_total")),
        static_cast<unsigned long long>(
            snap.counterTotal("edgesim_reconcile_orphans_deleted_total")),
        static_cast<unsigned long long>(
            snap.counterTotal("edgesim_reconcile_flow_removed_resynth_total")),
        static_cast<unsigned long long>(
            snap.counterTotal("edgesim_reconcile_stats_timeouts_total")),
        sweepHist != nullptr ? fmtQuantileMs(*sweepHist, 0.99).c_str() : "-");
  }
  out += "\n";
}

void renderSlo(const TelemetrySnapshot& snap, std::string& out) {
  Table table({"budget", "breaches"});
  for (const auto& counter : snap.counters) {
    if (counter.name != "edgesim_slo_breaches_total") continue;
    table.addRow({labelValue(counter.labels, "budget"),
                  fmtCount(counter.value)});
  }
  if (table.rowCount() == 0) return;
  out += "SLO budgets\n" + table.render() + "\n";
}

std::string renderFrame(const TelemetrySnapshot& snap,
                        const std::filesystem::path& path) {
  std::string out = strprintf("telemetry_top -- %s  (seq %llu, sim t=%.1fs)\n\n",
                              path.string().c_str(),
                              static_cast<unsigned long long>(snap.sequence),
                              snap.simTimeSeconds);
  renderRequests(snap, out);
  renderShards(snap, out);
  renderPhases(snap, out);
  renderOverload(snap, out);
  renderHandovers(snap, out);
  renderControlChannel(snap, out);
  renderSlo(snap, out);
  return out;
}

int runLint(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "telemetry_top --lint: no files given\n");
    return 2;
  }
  int rc = 0;
  for (const auto& file : files) {
    if (!std::filesystem::exists(file)) {
      std::fprintf(stderr, "%s: no such file\n", file.c_str());
      rc = 1;
      continue;
    }
    const Status status = lintPrometheus(readFile(file));
    if (status.ok()) {
      std::printf("%s: OK\n", file.c_str());
    } else {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   status.error().toString().c_str());
      rc = 1;
    }
  }
  return rc;
}

int runTop(const std::string& dir, double intervalSeconds, bool once) {
  std::uint64_t shownSequence = 0;
  bool shownAny = false;
  while (true) {
    const auto latest = findLatest(dir);
    if (!latest) {
      if (once) {
        std::fprintf(stderr, "telemetry_top: no snapshot_*.json in %s\n",
                     dir.c_str());
        return 1;
      }
    } else {
      const auto doc = JsonValue::parse(readFile(*latest));
      if (!doc.ok()) {
        // A writer may be mid-flight; skip this refresh and retry.
        if (once) {
          std::fprintf(stderr, "%s: %s\n", latest->string().c_str(),
                       doc.error().toString().c_str());
          return 1;
        }
      } else {
        const auto snap = TelemetrySnapshot::fromJson(doc.value());
        if (!snap.ok()) {
          std::fprintf(stderr, "%s: %s\n", latest->string().c_str(),
                       snap.error().toString().c_str());
          if (once) return 1;
        } else if (!shownAny || snap.value().sequence != shownSequence) {
          shownSequence = snap.value().sequence;
          shownAny = true;
          if (!once) std::printf("\033[H\033[2J");  // clear + home
          std::fputs(renderFrame(snap.value(), *latest).c_str(), stdout);
          std::fflush(stdout);
        }
      }
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(intervalSeconds));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "telemetry-out";
  double intervalSeconds = 1.0;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--lint") {
      std::vector<std::string> files(argv + i + 1, argv + argc);
      return runLint(files);
    }
    if (arg == "--interval" && i + 1 < argc) {
      intervalSeconds = std::max(0.1, std::atof(argv[++i]));
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: telemetry_top [dir] [--interval <seconds>] "
                  "[--once]\n       telemetry_top --lint <file.prom>...\n");
      return 0;
    } else {
      dir = arg;
    }
  }
  return runTop(dir, intervalSeconds, once);
}
