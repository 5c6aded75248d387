// Experiment measurement: timecurl-equivalent per-request records and a
// series recorder that renders the paper's tables.
//
// The paper measures `time_total` with curl: "everything from when Curl
// starts establishing a TCP connection until it gets a response for the
// HTTP request".  `HttpTimings::timeTotal()` in net/host.hpp implements
// exactly that; this module aggregates those samples per experiment series
// and renders medians (the statistic used in Figs. 11-16).
//
// Thread model: ONE writer.  add() / addSample() run on the thread that
// constructed the recorder (the simulation thread) and check it with an
// always-on assertion that names the owner thread; there is no lock.
// Reads are legal from any thread once recording has stopped, which is
// when every test and bench reads them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/owner_thread.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace edgesim::metrics {

/// One measured client request (timecurl.sh line).
struct RequestRecord {
  std::string series;     // e.g. "nginx/k8s/scaleup"
  SimTime start;
  SimTime total;          // curl time_total
  bool success = true;
  int synRetransmits = 0;
};

class Recorder {
 public:
  void add(RequestRecord record);
  void addSample(const std::string& series, double value);

  /// All samples of a series as doubles (seconds for durations).
  /// The pointer stays valid for the recorder's lifetime (map nodes are
  /// stable).
  const Samples* series(const std::string& name) const;

  std::vector<std::string> seriesNames() const;
  std::size_t totalRecords() const;
  const std::vector<RequestRecord>& records() const { return records_; }

  std::size_t failureCount() const { return failures_; }

  /// Bound storage: at most `maxRecords` stored request records and
  /// `maxSamplesPerSeries` samples per series (0 = unbounded, the
  /// historical default).  Events over a cap still count failures but
  /// their storage is dropped and tallied in droppedEvents() -- surfaced
  /// through the telemetry registry as `edgesim_recorder_dropped_events`.
  void setCapacity(std::size_t maxRecords, std::size_t maxSamplesPerSeries);
  std::size_t droppedEvents() const { return dropped_; }

  /// Render one row per series: count, median, mean, p95, min, max
  /// (durations in seconds).
  Table summaryTable(const std::string& valueHeader = "seconds") const;

 private:
  OwnerThread owner_;
  std::vector<RequestRecord> records_;
  std::map<std::string, Samples> samples_;  // ordered for stable output
  std::size_t failures_ = 0;
  std::size_t maxRecords_ = 0;
  std::size_t maxSamplesPerSeries_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace edgesim::metrics
