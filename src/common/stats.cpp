#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace p2plb {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile_sorted(std::span<const double> sorted, double q) {
  P2PLB_REQUIRE(q >= 0.0 && q <= 1.0);
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  RunningStats rs;
  for (double v : sorted) rs.add(v);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.sum = rs.sum();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = percentile_sorted(sorted, 0.25);
  s.median = percentile_sorted(sorted, 0.50);
  s.p75 = percentile_sorted(sorted, 0.75);
  s.p95 = percentile_sorted(sorted, 0.95);
  s.p99 = percentile_sorted(sorted, 0.99);
  return s;
}

double gini(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return gini_sorted(sorted);
}

double gini_sorted(std::span<const double> sorted) {
  if (sorted.empty()) return 0.0;
  P2PLB_REQUIRE_MSG(sorted.front() >= 0.0, "gini requires non-negative values");
  double cum_weighted = 0.0;
  double total = 0.0;
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cum_weighted += static_cast<double>(i + 1) * sorted[i];
    total += sorted[i];
  }
  if (total == 0.0) return 0.0;
  return (2.0 * cum_weighted) / (n * total) - (n + 1.0) / n;
}

double imbalance_factor(std::span<const double> values) {
  if (values.empty()) return 0.0;
  RunningStats rs;
  for (double v : values) rs.add(v);
  if (rs.mean() == 0.0) return 0.0;
  return rs.max() / rs.mean();
}

}  // namespace p2plb
