// Metrics registry for the observability layer: named counters, gauges, and
// latency histograms (backed by util::SampleStats). Instrumented components
// share one registry — usually the one owned by obs::Tracer — so a run's
// numbers land in a single place that benches and EXPERIMENTS.md tables can
// print uniformly. All maps are ordered, so reports are deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/mutex.h"

#include "util/stats.h"

namespace nees::obs {

// Maps compare transparently, so recording under a literal name builds no
// std::string once the name exists.
template <typename V>
using MetricMap = std::map<std::string, V, std::less<>>;

struct MetricsSnapshot {
  MetricMap<std::int64_t> counters;
  MetricMap<double> gauges;
  MetricMap<util::SampleStats> histograms;
};

class MetricsRegistry {
 public:
  void Increment(std::string_view name, std::int64_t delta = 1);
  std::int64_t CounterValue(std::string_view name) const;

  void SetGauge(std::string_view name, double value);
  double GaugeValue(std::string_view name) const;

  /// Adds one observation to the named histogram (created on first use).
  void Observe(std::string_view name, double value);
  util::SampleStats HistogramValue(std::string_view name) const;

  MetricsSnapshot Snapshot() const;

  /// Text report (util::TextTable): counters and gauges first, then one row
  /// per histogram with count/mean/p50/p95/max.
  std::string ReportTable() const;

  void Clear();

 private:
  mutable util::Mutex mu_{"obs.MetricsRegistry"};
  MetricMap<std::int64_t> counters_ NEES_GUARDED_BY(mu_);
  MetricMap<double> gauges_ NEES_GUARDED_BY(mu_);
  MetricMap<util::SampleStats> histograms_ NEES_GUARDED_BY(mu_);
};

}  // namespace nees::obs
