// Descriptive statistics used by the experiment harnesses and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace p2plb {

/// Streaming accumulator (Welford) for mean / variance / extrema.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance (biased); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel-reduction friendly).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary of a sample: order statistics computed on a sorted copy.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Compute a Summary of the given values.  Empty input yields all zeros.
[[nodiscard]] Summary summarize(std::span<const double> values);

/// Linear-interpolated percentile of a *sorted* sample; q in [0, 1].
[[nodiscard]] double percentile_sorted(std::span<const double> sorted, double q);

/// Gini coefficient of a non-negative sample: 0 = perfect equality,
/// -> 1 = maximal inequality.  Used to quantify load-balance quality.
[[nodiscard]] double gini(std::span<const double> values);
/// gini() of an already *sorted* sample (no copy, no sort).
[[nodiscard]] double gini_sorted(std::span<const double> sorted);

/// max(values) / mean(values): the classic "imbalance factor" of the
/// balls-and-bins literature.  Returns 0 for an empty or all-zero sample.
[[nodiscard]] double imbalance_factor(std::span<const double> values);

}  // namespace p2plb
