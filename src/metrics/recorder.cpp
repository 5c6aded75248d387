#include "metrics/recorder.hpp"

#include "util/strings.hpp"

namespace edgesim::metrics {

void Recorder::add(RequestRecord record) {
  owner_.check("Recorder");
  bool droppedStorage = false;
  if (record.success) {
    Samples& samples = samples_[record.series];
    if (maxSamplesPerSeries_ != 0 &&
        samples.count() >= maxSamplesPerSeries_) {
      droppedStorage = true;
    } else {
      samples.add(record.total.toSeconds());
    }
  } else {
    ++failures_;
  }
  if (maxRecords_ != 0 && records_.size() >= maxRecords_) {
    droppedStorage = true;
  } else {
    records_.push_back(std::move(record));
  }
  if (droppedStorage) ++dropped_;
}

void Recorder::addSample(const std::string& series, double value) {
  owner_.check("Recorder");
  Samples& samples = samples_[series];
  if (maxSamplesPerSeries_ != 0 && samples.count() >= maxSamplesPerSeries_) {
    ++dropped_;
    return;
  }
  samples.add(value);
}

void Recorder::setCapacity(std::size_t maxRecords,
                           std::size_t maxSamplesPerSeries) {
  maxRecords_ = maxRecords;
  maxSamplesPerSeries_ = maxSamplesPerSeries;
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

std::size_t Recorder::totalRecords() const {
  return records_.size();
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
