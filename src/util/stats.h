// Streaming summary statistics and percentile estimation for bench harnesses
// (step latencies, transfer throughput) and for the EXPERIMENTS.md tables.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace nees::util {

/// Accumulates samples; percentiles computed on demand (exact, sorts a copy).
class SampleStats {
 public:
  void Add(double value) {
    samples_.push_back(value);
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const { return sum_; }
  double mean() const { return samples_.empty() ? 0.0 : sum_ / samples_.size(); }
  double min() const { return samples_.empty() ? 0.0 : min_; }
  double max() const { return samples_.empty() ? 0.0 : max_; }

  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double stddev() const;

  /// p in [0, 100]; exact order statistic with linear interpolation.
  /// Sorts a copy of the samples on every call: to read several
  /// percentiles, sort once with SortedInto and use PercentileOfSorted.
  double Percentile(double p) const;
  /// Fills `out` with the samples in ascending order, reusing its storage.
  void SortedInto(std::vector<double>& out) const;
  /// Percentile() over samples already sorted ascending.
  static double PercentileOfSorted(const std::vector<double>& sorted,
                                   double p);

  /// "n=100 mean=1.23 p50=1.1 p95=2.0 max=3.4" — for bench reports.
  std::string Summary() const;

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Fixed-width ASCII table writer used by bench binaries to print the
/// regenerated paper tables/series in a uniform format.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nees::util
