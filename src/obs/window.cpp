#include "obs/window.h"

#include <algorithm>
#include <cmath>

namespace p2plb::obs {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::size_t LogHistogram::bucket_of(double value) noexcept {
  if (!(value > 0.0)) return 0;  // zero, negatives and NaN
  const int exp = static_cast<int>(std::floor(std::log2(value)));
  const int bucket = exp + kZeroExponent;
  if (bucket < 0) return 0;
  if (bucket >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(bucket);
}

double LogHistogram::bucket_lo(std::size_t i) noexcept {
  return std::ldexp(1.0, static_cast<int>(i) - kZeroExponent);
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // The rank-th sample in cumulative order (1-based; q = 0 -> first).
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(clamped * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      // Geometric midpoint of [lo, 2*lo): sqrt(2) * lo.
      return bucket_lo(i) * 1.4142135623730951;
    }
  }
  return bucket_lo(kBuckets - 1);
}

WindowedAggregator::WindowedAggregator(WindowConfig config)
    : config_(config) {
  P2PLB_REQUIRE_MSG(config_.bucket_width > 0.0,
                    "window bucket width must be positive");
  P2PLB_REQUIRE_MSG(config_.ring_buckets >= 2,
                    "window ring needs at least 2 buckets");
  bucket_end_ = config_.bucket_width;  // first bucket covers [0, W)
}

SeriesId WindowedAggregator::make_series(std::string_view name,
                                         SeriesKind kind) {
  P2PLB_REQUIRE_MSG(!name.empty(), "window series name must be non-empty");
  if (const auto it = by_name_.find(name); it != by_name_.end()) {
    const SeriesId id{it->second};
    P2PLB_REQUIRE_MSG(series_[id.index].kind == kind,
                      "window series re-registered with a different kind: " +
                          std::string(name));
    return id;
  }
  Series s;
  s.name = std::string(name);
  s.kind = kind;
  const std::size_t ring = config_.ring_buckets;
  s.sum.assign(ring, 0.0);
  s.last.assign(ring, kNan);
  s.min.assign(ring, kNan);
  s.max.assign(ring, kNan);
  s.count.assign(ring, 0);
  if (kind == SeriesKind::kHistogram) s.hist.assign(ring, LogHistogram{});
  const SeriesId id{static_cast<std::uint32_t>(series_.size())};
  series_.push_back(std::move(s));
  by_name_.emplace(std::string(name), id.index);
  return id;
}

SeriesId WindowedAggregator::counter_series(std::string_view name) {
  return make_series(name, SeriesKind::kCounter);
}

SeriesId WindowedAggregator::gauge_series(std::string_view name) {
  return make_series(name, SeriesKind::kGauge);
}

SeriesId WindowedAggregator::histogram_series(std::string_view name) {
  return make_series(name, SeriesKind::kHistogram);
}

ColumnId WindowedAggregator::column_series(std::string_view name) {
  const SeriesId target = make_series(name, SeriesKind::kHistogram);
  for (std::size_t i = 0; i < columns_.size(); ++i)
    if (columns_[i].name == name)
      return ColumnId{static_cast<std::uint32_t>(i)};
  Column c;
  c.name = std::string(name);
  c.target = target;
  const ColumnId id{static_cast<std::uint32_t>(columns_.size())};
  columns_.push_back(std::move(c));
  return id;
}

SeriesId WindowedAggregator::find_series(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? SeriesId{} : SeriesId{it->second};
}

SeriesKind WindowedAggregator::series_kind(SeriesId id) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  return series_[id.index].kind;
}

const std::string& WindowedAggregator::series_name(SeriesId id) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  return series_[id.index].name;
}

std::vector<std::string> WindowedAggregator::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const Series& s : series_) names.push_back(s.name);
  return names;
}

void WindowedAggregator::add_boundary_probe(BoundaryProbe probe) {
  P2PLB_REQUIRE(probe != nullptr);
  probes_.push_back(std::move(probe));
}

void WindowedAggregator::add_boundary_hook(BoundaryHook hook) {
  P2PLB_REQUIRE(hook != nullptr);
  hooks_.push_back(std::move(hook));
}

std::vector<double>& WindowedAggregator::column_data(ColumnId id,
                                                     std::size_t size) {
  P2PLB_REQUIRE(id.valid() && id.index < columns_.size());
  std::vector<double>& values = columns_[id.index].values;
  values.resize(size);
  return values;
}

void WindowedAggregator::apply(SeriesId id, double value) {
  P2PLB_ASSERT(id.valid() && id.index < series_.size());
  Series& s = series_[id.index];
  const std::size_t slot =
      static_cast<std::size_t>(current_seq_ % config_.ring_buckets);
  s.sum[slot] += value;
  s.last[slot] = value;
  if (s.count[slot] == 0) {
    s.min[slot] = value;
    s.max[slot] = value;
  } else {
    s.min[slot] = std::min(s.min[slot], value);
    s.max[slot] = std::max(s.max[slot], value);
  }
  ++s.count[slot];
  if (s.kind == SeriesKind::kHistogram) s.hist[slot].add(value);
  ++records_;
}

void WindowedAggregator::close_current_bucket() {
  const double boundary = bucket_end_;
  closing_ = true;
  // 1. Probes sample state into the closing bucket (their record()
  //    calls land here because the roll is parked while closing_).
  for (const BoundaryProbe& probe : probes_) probe(boundary);
  // 2. Columns fold into their histogram series, still in this bucket.
  for (const Column& c : columns_) {
    for (const double v : c.values) apply(c.target, v);
  }
  closing_ = false;
  // 3. Rotate: the next bucket's slot is recycled from the oldest one.
  ++current_seq_;
  const std::size_t slot =
      static_cast<std::size_t>(current_seq_ % config_.ring_buckets);
  for (Series& s : series_) {
    s.sum[slot] = 0.0;
    s.last[slot] = kNan;
    s.min[slot] = kNan;
    s.max[slot] = kNan;
    s.count[slot] = 0;
    if (s.kind == SeriesKind::kHistogram) s.hist[slot].clear();
  }
  last_boundary_ = boundary;
  closed_ = std::min(closed_ + 1, config_.ring_buckets - 1);
  // One product, not a running sum: W = 0.1 must not drift.
  bucket_end_ = static_cast<double>(current_seq_ + 1) * config_.bucket_width;
  // 4. Hooks read the now-queryable closed window.
  for (const BoundaryHook& hook : hooks_) hook(boundary);
}

std::size_t WindowedAggregator::closed_buckets() const noexcept {
  return closed_;
}

std::size_t WindowedAggregator::window_span(std::size_t k) const noexcept {
  return std::min(std::max<std::size_t>(k, 1), closed_);
}

double WindowedAggregator::sum_over(SeriesId id, std::size_t k) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  const Series& s = series_[id.index];
  double total = 0.0;
  for (std::size_t back = 1; back <= window_span(k); ++back)
    total += s.sum[slot_back(back)];
  return total;
}

std::uint64_t WindowedAggregator::count_over(SeriesId id,
                                             std::size_t k) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  const Series& s = series_[id.index];
  std::uint64_t total = 0;
  for (std::size_t back = 1; back <= window_span(k); ++back)
    total += s.count[slot_back(back)];
  return total;
}

double WindowedAggregator::last_over(SeriesId id, std::size_t k) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  const Series& s = series_[id.index];
  for (std::size_t back = 1; back <= window_span(k); ++back) {
    const std::size_t slot = slot_back(back);
    if (s.count[slot] > 0) return s.last[slot];
  }
  return kNan;
}

double WindowedAggregator::min_over(SeriesId id, std::size_t k) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  const Series& s = series_[id.index];
  double best = kNan;
  for (std::size_t back = 1; back <= window_span(k); ++back) {
    const std::size_t slot = slot_back(back);
    if (s.count[slot] == 0) continue;
    best = std::isnan(best) ? s.min[slot] : std::min(best, s.min[slot]);
  }
  return best;
}

double WindowedAggregator::max_over(SeriesId id, std::size_t k) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  const Series& s = series_[id.index];
  double best = kNan;
  for (std::size_t back = 1; back <= window_span(k); ++back) {
    const std::size_t slot = slot_back(back);
    if (s.count[slot] == 0) continue;
    best = std::isnan(best) ? s.max[slot] : std::max(best, s.max[slot]);
  }
  return best;
}

double WindowedAggregator::mean_over(SeriesId id, std::size_t k) const {
  const std::uint64_t n = count_over(id, k);
  if (n == 0) return kNan;
  return sum_over(id, k) / static_cast<double>(n);
}

double WindowedAggregator::rate_over(SeriesId id, std::size_t k) const {
  const std::size_t span = window_span(k);
  if (span == 0) return kNan;
  return sum_over(id, k) /
         (static_cast<double>(span) * config_.bucket_width);
}

LogHistogram WindowedAggregator::merged_histogram(SeriesId id,
                                                  std::size_t k) const {
  P2PLB_REQUIRE(id.valid() && id.index < series_.size());
  const Series& s = series_[id.index];
  P2PLB_REQUIRE_MSG(s.kind == SeriesKind::kHistogram,
                    "merged_histogram needs a histogram series: " + s.name);
  LogHistogram merged;
  for (std::size_t back = 1; back <= window_span(k); ++back)
    merged.merge(s.hist[slot_back(back)]);
  return merged;
}

double WindowedAggregator::quantile_over(SeriesId id, std::size_t k,
                                         double q) const {
  const LogHistogram merged = merged_histogram(id, k);
  if (merged.total() == 0) return kNan;
  return merged.quantile(q);
}

}  // namespace p2plb::obs
