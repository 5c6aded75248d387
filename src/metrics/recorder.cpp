#include "metrics/recorder.hpp"

#include "util/strings.hpp"

namespace edgesim::metrics {

void Recorder::addSample(const std::string& series, double value) {
  owner_.check("Recorder");
  samples_[series].add(value);
}

void Recorder::addFailure() {
  owner_.check("Recorder");
  ++failures_;
}

const Samples* Recorder::series(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? nullptr : &it->second;
}

std::vector<std::string> Recorder::seriesNames() const {
  std::vector<std::string> names;
  names.reserve(samples_.size());
  for (const auto& [name, s] : samples_) names.push_back(name);
  return names;
}

Table Recorder::summaryTable(const std::string& valueHeader) const {
  Table table({"series", "n", "median " + valueHeader, "mean", "p95", "min",
               "max"});
  for (const auto& [name, s] : samples_) {
    if (s.empty()) continue;
    table.addRow({name, strprintf("%zu", s.count()),
                  strprintf("%.4f", s.median()), strprintf("%.4f", s.mean()),
                  strprintf("%.4f", s.p95()), strprintf("%.4f", s.min()),
                  strprintf("%.4f", s.max())});
  }
  return table;
}

}  // namespace edgesim::metrics
