#include "obs/metrics.h"

#include "util/strings.h"

namespace nees::obs {
namespace {

/// The entry for `name`, created on first use.
template <typename V>
V& Slot(MetricMap<V>& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), V{}).first;
  return it->second;
}

}  // namespace

void MetricsRegistry::Increment(std::string_view name, std::int64_t delta) {
  util::MutexLock lock(mu_);
  Slot(counters_, name) += delta;
}

std::int64_t MetricsRegistry::CounterValue(std::string_view name) const {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  util::MutexLock lock(mu_);
  Slot(gauges_, name) = value;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::Observe(std::string_view name, double value) {
  util::MutexLock lock(mu_);
  Slot(histograms_, name).Add(value);
}

util::SampleStats MetricsRegistry::HistogramValue(
    std::string_view name) const {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? util::SampleStats{} : it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  util::MutexLock lock(mu_);
  return {counters_, gauges_, histograms_};
}

std::string MetricsRegistry::ReportTable() const {
  // Rendered under the lock: copying the histograms would copy every sample.
  util::MutexLock lock(mu_);
  std::string out;
  if (!counters_.empty() || !gauges_.empty()) {
    util::TextTable table({"metric", "value"});
    for (const auto& [name, value] : counters_) {
      table.AddRow({name, std::to_string(value)});
    }
    for (const auto& [name, value] : gauges_) {
      table.AddRow({name, util::Format("%.6g", value)});
    }
    out += table.ToString();
  }
  if (!histograms_.empty()) {
    util::TextTable table({"histogram", "n", "mean", "p50", "p95", "max"});
    std::vector<double> sorted;  // one sort per histogram, one buffer
    const auto percentile = [&sorted](double p) {
      return util::Format("%.4g",
                          util::SampleStats::PercentileOfSorted(sorted, p));
    };
    for (const auto& [name, stats] : histograms_) {
      stats.SortedInto(sorted);
      table.AddRow({name, std::to_string(stats.count()),
                    util::Format("%.4g", stats.mean()), percentile(50),
                    percentile(95), util::Format("%.4g", stats.max())});
    }
    if (!out.empty()) out += "\n";
    out += table.ToString();
  }
  return out;
}

void MetricsRegistry::Clear() {
  util::MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace nees::obs
