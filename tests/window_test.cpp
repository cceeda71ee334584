// Tests for the streaming windowed-metrics plane (obs/window.h): the
// LogHistogram's bucket map and exact merge, tumbling-bucket boundary
// semantics (aligned to t = 0, closed by records passing a boundary,
// never by scheduled events), sliding-window queries and ring eviction,
// SoA column folding, the boundary protocol (probes sample into the
// closing bucket, then columns fold, then the hooks fire in order), and
// the passivity claim the CI byte-identity gates rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/window.h"

namespace p2plb {
namespace {

using obs::ColumnId;
using obs::LogHistogram;
using obs::SeriesId;
using obs::SeriesKind;
using obs::WindowConfig;
using obs::WindowedAggregator;

TEST(LogHistogram, BucketMapCoversTheDocumentedRange) {
  // Bucket i covers [2^(i-16), 2^(i-16+1)); zero and negatives land in
  // bucket 0, values past the top clamp into the last bucket.
  EXPECT_EQ(LogHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(-3.5), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(1.0), 16u);
  EXPECT_EQ(LogHistogram::bucket_of(1.99), 16u);
  EXPECT_EQ(LogHistogram::bucket_of(2.0), 17u);
  EXPECT_EQ(LogHistogram::bucket_of(0.5), 15u);
  EXPECT_EQ(LogHistogram::bucket_of(1e300), LogHistogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(LogHistogram::bucket_lo(16), 1.0);
  EXPECT_DOUBLE_EQ(LogHistogram::bucket_lo(17), 2.0);
}

TEST(LogHistogram, MergeIsExactElementwiseAddition) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram all;
  const std::vector<double> into_a = {0.25, 1.0, 1.5, 700.0};
  const std::vector<double> into_b = {0.0, 1.0, 3.0, 3.9, 1e9};
  for (const double v : into_a) {
    a.add(v);
    all.add(v);
  }
  for (const double v : into_b) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  // Merging the two partitions is indistinguishable from having added
  // every sample to one histogram -- the sliding-window guarantee.
  EXPECT_EQ(a, all);
  EXPECT_EQ(a.total(), into_a.size() + into_b.size());
}

TEST(LogHistogram, QuantileIsTheGeometricBucketMidpoint) {
  LogHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 99; ++i) h.add(1.0);  // bucket 16: [1, 2)
  h.add(700.0);                             // bucket 25: [512, 1024)
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0 * 1.4142135623730951);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 512.0 * 1.4142135623730951);
  // p99 of 100 samples is still the 99th sample -- the bulk bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0 * 1.4142135623730951);
}

TEST(Window, ConfigIsValidated) {
  EXPECT_THROW(WindowedAggregator({0.0, 8}), PreconditionError);
  EXPECT_THROW(WindowedAggregator({-1.0, 8}), PreconditionError);
  EXPECT_THROW(WindowedAggregator({10.0, 1}), PreconditionError);
}

TEST(Window, BucketsAlignToZeroAndCloseWhenTheClockPassesThem) {
  WindowedAggregator w({10.0, 8});
  const SeriesId x = w.counter_series("x");
  w.record(x, 0.0, 1.0);
  w.record(x, 9.999, 1.0);
  EXPECT_EQ(w.closed_buckets(), 0u);  // still inside [0, 10)
  w.record(x, 10.0, 5.0);             // t = 10 opens bucket [10, 20)
  EXPECT_EQ(w.closed_buckets(), 1u);
  EXPECT_DOUBLE_EQ(w.last_boundary(), 10.0);
  EXPECT_DOUBLE_EQ(w.sum_over(x, 1), 2.0);
  // A jump across several widths closes every bucket in between.
  w.record(x, 35.0, 1.0);
  EXPECT_EQ(w.closed_buckets(), 3u);
  EXPECT_DOUBLE_EQ(w.last_boundary(), 30.0);
  EXPECT_DOUBLE_EQ(w.sum_over(x, 1), 0.0);  // [20, 30) saw nothing
  EXPECT_DOUBLE_EQ(w.sum_over(x, 2), 5.0);  // [10, 20) holds the 5
  EXPECT_DOUBLE_EQ(w.sum_over(x, 3), 7.0);
  EXPECT_EQ(w.records(), 4u);
}

TEST(Window, BoundariesAreExactMultiplesOfTheWidth) {
  // Bucket i ends at (i+1)*W computed as one product: summing W = 0.1
  // bucket by bucket would put the 10th boundary at 0.9999999999999999
  // and the 1000th at 99.9999999999986.
  WindowedAggregator w({0.1, 8});
  std::vector<double> boundaries;
  w.add_boundary_hook([&](double t) { boundaries.push_back(t); });
  w.advance_to(100.0);
  ASSERT_EQ(boundaries.size(), 1000u);
  EXPECT_EQ(boundaries[9], 1.0);
  EXPECT_EQ(w.last_boundary(), 100.0);
  for (std::size_t i = 0; i < boundaries.size(); ++i)
    ASSERT_EQ(boundaries[i], static_cast<double>(i + 1) * 0.1) << i;
}

TEST(Window, SlidingWindowsEvictBeyondTheRing) {
  // ring_buckets = 4 keeps at most 3 closed buckets queryable.
  WindowedAggregator w({1.0, 4});
  const SeriesId x = w.counter_series("x");
  for (int i = 0; i < 6; ++i)
    w.record(x, static_cast<double>(i), static_cast<double>(1 << i));
  // Closed buckets: [0,1)..[4,5); queryable: [2,3), [3,4), [4,5).
  EXPECT_EQ(w.closed_buckets(), 3u);
  EXPECT_DOUBLE_EQ(w.sum_over(x, 1), 16.0);
  EXPECT_DOUBLE_EQ(w.sum_over(x, 3), 4.0 + 8.0 + 16.0);
  // Asking for more than the ring holds clamps to what is queryable --
  // bounded memory means the older buckets are genuinely gone.
  EXPECT_DOUBLE_EQ(w.sum_over(x, 100), 4.0 + 8.0 + 16.0);
  EXPECT_DOUBLE_EQ(w.rate_over(x, 2), (8.0 + 16.0) / 2.0);
}

TEST(Window, GaugeSeriesKeepLastMinMaxMean) {
  WindowedAggregator w({10.0, 8});
  const SeriesId g = w.gauge_series("g");
  w.record(g, 1.0, 4.0);
  w.record(g, 2.0, 1.0);
  w.record(g, 3.0, 7.0);
  w.advance_to(10.0);
  EXPECT_DOUBLE_EQ(w.last_over(g, 1), 7.0);
  EXPECT_DOUBLE_EQ(w.min_over(g, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.max_over(g, 1), 7.0);
  EXPECT_DOUBLE_EQ(w.mean_over(g, 1), 4.0);
  EXPECT_EQ(w.count_over(g, 1), 3u);
  // An empty bucket contributes nothing; last_over falls back to the
  // newest bucket that has a reading, and an all-empty window is NaN.
  w.advance_to(20.0);
  EXPECT_DOUBLE_EQ(w.last_over(g, 2), 7.0);
  EXPECT_TRUE(std::isnan(w.last_over(g, 1)));
  EXPECT_TRUE(std::isnan(w.mean_over(g, 1)));
  EXPECT_TRUE(std::isnan(w.min_over(g, 1)));
}

TEST(Window, HistogramSeriesMergeExactlyAcrossTheWindow) {
  WindowedAggregator w({10.0, 8});
  const SeriesId h = w.histogram_series("h");
  w.record(h, 1.0, 1.0);
  w.record(h, 2.0, 1.0);
  w.record(h, 12.0, 700.0);
  w.advance_to(20.0);
  LogHistogram expect_all;
  expect_all.add(1.0);
  expect_all.add(1.0);
  expect_all.add(700.0);
  EXPECT_EQ(w.merged_histogram(h, 2), expect_all);
  EXPECT_EQ(w.merged_histogram(h, 1).total(), 1u);
  EXPECT_DOUBLE_EQ(w.quantile_over(h, 2, 0.5), 1.0 * 1.4142135623730951);
  EXPECT_TRUE(std::isnan(w.quantile_over(w.histogram_series("empty"), 1, 0.5)));
}

TEST(Window, RegistrationIsFindOrCreateAndKindChecked) {
  WindowedAggregator w({10.0, 8});
  const SeriesId a = w.counter_series("net.messages");
  EXPECT_EQ(w.counter_series("net.messages").index, a.index);
  EXPECT_EQ(w.find_series("net.messages").index, a.index);
  EXPECT_FALSE(w.find_series("missing").valid());
  EXPECT_EQ(w.series_kind(a), SeriesKind::kCounter);
  EXPECT_EQ(w.series_name(a), "net.messages");
  EXPECT_THROW(w.gauge_series("net.messages"), PreconditionError);
  const ColumnId c = w.column_series("load");
  EXPECT_EQ(w.column_series("load").index, c.index);
  EXPECT_EQ(w.series_kind(w.find_series("load")), SeriesKind::kHistogram);
  EXPECT_EQ(w.series_names(),
            (std::vector<std::string>{"net.messages", "load"}));
}

TEST(Window, BoundaryProtocolProbesThenFoldsThenHook) {
  WindowedAggregator w({10.0, 8});
  const SeriesId g = w.gauge_series("g");
  const ColumnId col = w.column_series("col");
  const SeriesId col_series = w.find_series("col");
  std::vector<double> probe_times;
  w.add_boundary_probe([&](double boundary) {
    probe_times.push_back(boundary);
    // Probe records land in the *closing* bucket, not the next one.
    w.record(g, boundary, boundary);
    std::vector<double>& data = w.column_data(col, 3);
    data[0] = 1.0;
    data[1] = 1.5;
    data[2] = 700.0;
  });
  std::vector<std::string> order;
  std::vector<double> hook_times;
  std::vector<std::uint64_t> hook_saw_fold;
  w.add_boundary_hook([&](double boundary) {
    order.push_back("first");
    hook_times.push_back(boundary);
    // By the time the hook runs the column has already folded, so the
    // alert engine sees this boundary's distribution.
    hook_saw_fold.push_back(w.merged_histogram(col_series, 1).total());
  });
  // A second hook (e.g. the series export next to the alert engine)
  // runs after the first, also after the fold.
  w.add_boundary_hook([&](double) {
    order.push_back("second");
    hook_saw_fold.push_back(w.merged_histogram(col_series, 1).total());
  });

  w.advance_to(30.0);  // closes [0,10), [10,20), [20,30) in one call
  EXPECT_EQ(probe_times, (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_EQ(hook_times, (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "first",
                                             "second", "first", "second"}));
  EXPECT_EQ(hook_saw_fold, std::vector<std::uint64_t>(6, 3u));
  // The probe's gauge reading is queryable as the closing bucket's.
  EXPECT_DOUBLE_EQ(w.last_over(g, 1), 30.0);
  EXPECT_DOUBLE_EQ(w.min_over(g, 3), 10.0);
  EXPECT_DOUBLE_EQ(w.quantile_over(col_series, 1, 0.5),
                   1.0 * 1.4142135623730951);
}

TEST(Window, ColumnBufferIsReusedAcrossBoundaries) {
  WindowedAggregator w({10.0, 8});
  const ColumnId col = w.column_series("col");
  std::vector<double>& first = w.column_data(col, 4);
  first.assign(4, 2.0);
  const double* const storage = first.data();
  w.advance_to(10.0);
  // Steady state: same size asks must reuse the buffer (the zero
  // per-boundary-allocation claim); shrinking keeps capacity too.
  std::vector<double>& second = w.column_data(col, 4);
  EXPECT_EQ(second.data(), storage);
  EXPECT_EQ(second.size(), 4u);
  std::vector<double>& third = w.column_data(col, 2);
  EXPECT_EQ(third.size(), 2u);
  EXPECT_EQ(third.data(), storage);
}

TEST(Window, AdvanceIsPassiveAndMonotone) {
  // advance_to never creates events or state beyond closing buckets:
  // calling it repeatedly with the same time is idempotent, and a time
  // inside the current bucket closes nothing.
  WindowedAggregator w({10.0, 8});
  const SeriesId x = w.counter_series("x");
  w.advance_to(25.0);
  EXPECT_EQ(w.closed_buckets(), 2u);
  w.advance_to(25.0);
  w.advance_to(29.0);
  EXPECT_EQ(w.closed_buckets(), 2u);
  EXPECT_DOUBLE_EQ(w.last_boundary(), 20.0);
  EXPECT_EQ(w.records(), 0u);  // advance_to is not a record
  w.record(x, 29.5, 1.0);
  EXPECT_EQ(w.records(), 1u);
}

}  // namespace
}  // namespace p2plb
