#include "util/stats.h"

#include <cmath>

#include "util/strings.h"

namespace nees::util {

double SampleStats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double accum = 0.0;
  for (double s : samples_) accum += (s - m) * (s - m);
  return std::sqrt(accum / static_cast<double>(samples_.size() - 1));
}

double SampleStats::Percentile(double p) const {
  std::vector<double> sorted;
  SortedInto(sorted);
  return PercentileOfSorted(sorted, p);
}

void SampleStats::SortedInto(std::vector<double>& out) const {
  out.assign(samples_.begin(), samples_.end());
  std::sort(out.begin(), out.end());
}

double SampleStats::PercentileOfSorted(const std::vector<double>& sorted,
                                       double p) {
  if (sorted.empty()) return 0.0;
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::string SampleStats::Summary() const {
  std::vector<double> sorted;
  SortedInto(sorted);
  return Format("n=%zu mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
                count(), mean(), PercentileOfSorted(sorted, 50),
                PercentileOfSorted(sorted, 95), PercentileOfSorted(sorted, 99),
                max());
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::ToString() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      line += " " + cells[i];
      line.append(widths[i] - cells[i].size() + 1, ' ');
      line += "|";
    }
    return line + "\n";
  };
  std::string out = emit_row(headers_);
  std::string rule = "|";
  for (std::size_t w : widths) {
    rule.append(w + 2, '-');
    rule += "|";
  }
  out += rule + "\n";
  for (const auto& row : rows_) out += emit_row(row);
  return out;
}

}  // namespace nees::util
