// Experiment measurement: a store of timecurl-equivalent samples per series
// that renders the paper's tables.
//
// The paper measures `time_total` with curl: "everything from when Curl
// starts establishing a TCP connection until it gets a response for the
// HTTP request".  `HttpTimings::timeTotal()` in net/host.hpp implements
// exactly that; this module aggregates those samples per experiment series
// and renders medians (the statistic used in Figs. 11-16).
//
// Thread model: ONE writer.  addSample() / addFailure() run on the thread
// that constructed the recorder (the simulation thread) and check it with
// an always-on assertion that names the owner thread; there is no lock.
// Reads are legal from any thread once recording has stopped, which is
// when every test and bench reads them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/owner_thread.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace edgesim::metrics {

class Recorder {
 public:
  /// One value of `series`: a request's curl time_total, or a phase
  /// duration (seconds).
  void addSample(const std::string& series, double value);
  /// One failed request: counted, no sample.
  void addFailure();

  /// All samples of a series as doubles (seconds for durations).
  /// The pointer stays valid for the recorder's lifetime (map nodes are
  /// stable).
  const Samples* series(const std::string& name) const;

  std::vector<std::string> seriesNames() const;

  std::size_t failureCount() const { return failures_; }

  /// Render one row per series: count, median, mean, p95, min, max
  /// (durations in seconds).
  Table summaryTable(const std::string& valueHeader = "seconds") const;

 private:
  OwnerThread owner_;
  std::map<std::string, Samples> samples_;  // ordered for stable output
  std::size_t failures_ = 0;
};

}  // namespace edgesim::metrics
