// Streaming windowed metrics over simulated time.
//
// Every other sink in obs is post-hoc: the tracer streams events, the
// time-series export appends samples, and analysis happens after the
// run.  The streaming-balancer ROADMAP item needs the opposite -- an
// *online* sensing plane that protocols can read (and alert on) while
// the simulation is still going.  A WindowedAggregator is that plane:
// named series bucketed over sim time (a ring of tumbling buckets;
// sliding windows are queries over the last k closed buckets), fed from
// the hot paths with zero per-record allocation, evaluated at bucket
// boundaries by the obs::AlertEngine.
//
// Design rules:
//
//   * Passive advancement.  The aggregator schedules nothing.  Buckets
//     close when advance_to (or, standalone, a record) carries the clock
//     past a boundary.  In a simulation the sim::Engine closes them on
//     time (Engine::attach_windows), so attaching one adds no events --
//     the schedule stays byte-identical, which the window tests and the
//     CI alert-smoke cmp gates pin.
//   * Bounded memory.  Each series owns ring_buckets buckets, full stop.
//     A 10^6-node run holds the same few kilobytes per series as a
//     100-node run; only columns scale with N, as one dense double each.
//   * Exact merge.  Distribution series use log-bucketed histograms with
//     integer counts (LogHistogram), so merging k buckets into one
//     sliding window is elementwise addition -- exact, associative, and
//     independent of bucket order.
//   * SoA columns.  Per-node gauges (utilization, queue depth) live as
//     dense double columns indexed by position, written in bulk by a
//     boundary probe and folded into a histogram series per bucket --
//     cache-friendly at million-node scale, no per-node map entries.
//   * Deterministic boundaries.  Buckets are aligned to t = 0 (bucket i
//     covers [i*W, (i+1)*W), (i+1)*W computed as one product), so the
//     closing sequence is a pure function of deterministic sim times.
//
// Boundary protocol, in order, per closed bucket:
//   1. boundary probes run (stamped with the boundary time); they write
//      gauges/columns that belong to the *closing* bucket;
//   2. columns fold into their histogram series;
//   3. the bucket closes (becomes queryable, ring rotates);
//   4. the boundary hooks fire in registration order (the AlertEngine
//      evaluates its rules; obs::record_series appends the series rows).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace p2plb::obs {

/// Fixed-shape histogram over power-of-two buckets: bucket i counts
/// samples with value in [2^(i-kZeroExponent), 2^(i+1-kZeroExponent)),
/// covering ~[2^-16, 2^48) -- unit loads, message counts and latencies
/// all fit.  Values below the range (including zero and negatives) land
/// in bucket 0, values above in the last bucket.  Counts are integers,
/// so merge() is elementwise addition: exact, associative, lossless.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  static constexpr int kZeroExponent = 16;  ///< bucket 0 starts at 2^-16

  void add(double value) noexcept {
    ++counts_[bucket_of(value)];
    ++total_;
  }

  /// Elementwise-add `other` into this histogram (exact).
  void merge(const LogHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  void clear() noexcept {
    counts_.fill(0);
    total_ = 0;
  }

  /// The bucket a value lands in (see the class comment).
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept;
  /// Lower edge of bucket i: 2^(i - kZeroExponent).
  [[nodiscard]] static double bucket_lo(std::size_t i) noexcept;

  [[nodiscard]] std::uint64_t count(std::size_t i) const {
    return counts_.at(i);
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Quantile estimate for q in [0, 1]: the geometric midpoint of the
  /// bucket holding the q-th sample (0 when empty).  Error is bounded by
  /// the bucket ratio (2x), independent of sample count.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] bool operator==(const LogHistogram&) const = default;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Stable handle to one series; resolve once at attach time, record
/// through it on the hot path with no lookup.
struct SeriesId {
  std::uint32_t index = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool valid() const noexcept {
    return index != std::numeric_limits<std::uint32_t>::max();
  }
};

/// Stable handle to one SoA column.
struct ColumnId {
  std::uint32_t index = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool valid() const noexcept {
    return index != std::numeric_limits<std::uint32_t>::max();
  }
};

enum class SeriesKind : std::uint8_t {
  kCounter,    ///< per-bucket sums of recorded deltas (rates, traffic)
  kGauge,      ///< per-bucket last/min/max/mean of sampled readings
  kHistogram,  ///< per-bucket LogHistogram of recorded samples
};

/// Windowed-aggregator configuration.
struct WindowConfig {
  /// Tumbling-bucket width in sim::Time units.
  double bucket_width = 10.0;
  /// Ring size: how many closed buckets stay queryable (the longest
  /// sliding window).
  std::size_t ring_buckets = 64;
};

/// The online metrics plane (see the header comment).
class WindowedAggregator {
 public:
  explicit WindowedAggregator(WindowConfig config = {});
  WindowedAggregator(const WindowedAggregator&) = delete;
  WindowedAggregator& operator=(const WindowedAggregator&) = delete;

  /// A boundary probe samples state *into* the closing bucket; it runs
  /// once per closed bucket, stamped with the boundary time.
  using BoundaryProbe = std::function<void(double boundary_t)>;
  /// A boundary hook runs after each bucket closes and reads the closed
  /// window (the AlertEngine's evaluation point, the series export).
  using BoundaryHook = std::function<void(double boundary_t)>;

  // --- registration (setup phase; find-or-create by name) ---------------
  SeriesId counter_series(std::string_view name);
  SeriesId gauge_series(std::string_view name);
  SeriesId histogram_series(std::string_view name);
  /// A dense per-entity gauge column folded into `name` as a histogram
  /// series at every boundary.
  ColumnId column_series(std::string_view name);

  /// The series registered under `name` (invalid id when absent) and its
  /// kind -- how the AlertEngine resolves rule metrics.
  [[nodiscard]] SeriesId find_series(std::string_view name) const;
  [[nodiscard]] SeriesKind series_kind(SeriesId id) const;
  [[nodiscard]] const std::string& series_name(SeriesId id) const;
  /// All registered series names in registration order.
  [[nodiscard]] std::vector<std::string> series_names() const;
  /// Number of registered series; ids run 0 .. series_count() - 1.
  [[nodiscard]] std::size_t series_count() const noexcept {
    return series_.size();
  }

  void add_boundary_probe(BoundaryProbe probe);
  /// Hooks run in the order they were added.
  void add_boundary_hook(BoundaryHook hook);

  // --- feeding (hot path; no allocation) --------------------------------
  /// Record `value` at time `t` into `id`'s current bucket, closing any
  /// buckets the clock passed first.  Counter series accumulate, gauge
  /// series keep last/min/max/mean, histogram series bucket the value.
  /// `t` must be >= every previously seen time (sim time is monotone).
  /// Boundary probes may call record(boundary_t, ...) re-entrantly: the
  /// guard in advance_to parks the roll so their readings land in the
  /// closing bucket instead of recursing.
  void record(SeriesId id, double t, double value) {
    advance_to(t);
    apply(id, value);
  }

  /// Close every bucket whose end is <= t (probes + folds + hooks per
  /// boundary, in time order); true iff one closed.  The bucket
  /// containing t stays open.
  bool advance_to(double t) {
    if (closing_ || t < bucket_end_) return false;
    while (bucket_end_ <= t) close_current_bucket();
    return true;
  }

  /// Resize-and-expose a column's dense storage (boundary probes write
  /// it in bulk).  Growing past the previous high-water mark is the only
  /// allocation; steady-state boundaries reuse the buffer.
  [[nodiscard]] std::vector<double>& column_data(ColumnId id,
                                                 std::size_t size);

  // --- queries over closed buckets (newest = 1 bucket back) -------------
  /// Number of buckets closed so far (capped at ring_buckets).
  [[nodiscard]] std::size_t closed_buckets() const noexcept;
  /// End time of the newest closed bucket (meaningless before the first
  /// close; check closed_buckets()).
  [[nodiscard]] double last_boundary() const noexcept {
    return last_boundary_;
  }

  /// Sum over the last `k` closed buckets (counter/gauge: recorded sums).
  [[nodiscard]] double sum_over(SeriesId id, std::size_t k) const;
  /// Recorded samples over the last `k` closed buckets.
  [[nodiscard]] std::uint64_t count_over(SeriesId id, std::size_t k) const;
  /// Gauge value in the newest closed bucket that has one (NaN when the
  /// last `k` buckets are all empty).
  [[nodiscard]] double last_over(SeriesId id, std::size_t k) const;
  [[nodiscard]] double min_over(SeriesId id, std::size_t k) const;
  [[nodiscard]] double max_over(SeriesId id, std::size_t k) const;
  /// sum / count over the window (NaN when empty).
  [[nodiscard]] double mean_over(SeriesId id, std::size_t k) const;
  /// Per-time-unit rate: sum over the window / window duration.
  [[nodiscard]] double rate_over(SeriesId id, std::size_t k) const;
  /// Exact merge of the last `k` closed buckets' histograms.
  [[nodiscard]] LogHistogram merged_histogram(SeriesId id,
                                              std::size_t k) const;
  /// Quantile over merged_histogram(id, k) (NaN when empty).
  [[nodiscard]] double quantile_over(SeriesId id, std::size_t k,
                                     double q) const;

  [[nodiscard]] const WindowConfig& config() const noexcept {
    return config_;
  }
  /// Total records applied (tests pin the zero-overhead claim with it).
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  /// One series' ring storage, SoA across buckets: slot s = seq % ring.
  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::kCounter;
    std::vector<double> sum;
    std::vector<double> last;
    std::vector<double> min;
    std::vector<double> max;
    std::vector<std::uint64_t> count;
    std::vector<LogHistogram> hist;  ///< histogram kind only
  };
  struct Column {
    std::string name;
    std::vector<double> values;
    SeriesId target;  ///< the histogram series the column folds into
  };

  SeriesId make_series(std::string_view name, SeriesKind kind);
  void apply(SeriesId id, double value);
  void close_current_bucket();
  /// Ring slot of the bucket `back` buckets before the current one
  /// (back = 1 is the newest closed bucket).
  [[nodiscard]] std::size_t slot_back(std::size_t back) const noexcept {
    return (current_seq_ + config_.ring_buckets - back) %
           config_.ring_buckets;
  }
  [[nodiscard]] std::size_t window_span(std::size_t k) const noexcept;

  WindowConfig config_;
  std::map<std::string, std::uint32_t, std::less<>> by_name_;
  std::vector<Series> series_;
  std::vector<Column> columns_;
  std::vector<BoundaryProbe> probes_;
  std::vector<BoundaryHook> hooks_;
  std::uint64_t current_seq_ = 0;
  double bucket_end_ = 0.0;
  double last_boundary_ = 0.0;
  std::size_t closed_ = 0;
  std::uint64_t records_ = 0;
  bool closing_ = false;
};

}  // namespace p2plb::obs
