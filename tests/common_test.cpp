// Unit tests for src/common: RNG, statistics, histograms, tables, CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "common/error.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace p2plb {
namespace {

// --- Rng ------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDecorrelates) {
  Rng root(7);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng r1(9), r2(9);
  Rng a = r1.fork(5);
  Rng b = r2.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(4);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowRejectsZero) {
  Rng rng(4);
  EXPECT_THROW((void)rng.below(0), PreconditionError);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.15);  // exponential: stddev == mean
}

TEST(Rng, ParetoMomentsAndSupport) {
  Rng rng(10);
  // alpha = 3 has finite mean alpha*xm/(alpha-1) = 1.5*xm.
  RunningStats s;
  for (int i = 0; i < 200000; ++i) {
    const double v = rng.pareto(3.0, 2.0);
    EXPECT_GE(v, 2.0);
    s.add(v);
  }
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(11);
  const std::vector<double> w{0.2, 0.0, 0.8};
  int counts[3] = {};
  for (int i = 0; i < 50000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 50000, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 50000, 0.8, 0.02);
}

TEST(Rng, WeightedRejectsBadInput) {
  Rng rng(12);
  const std::vector<double> zero{0.0, 0.0};
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW((void)rng.weighted(zero), PreconditionError);
  EXPECT_THROW((void)rng.weighted(negative), PreconditionError);
  EXPECT_THROW((void)rng.weighted({}), PreconditionError);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(13);
  const auto s = rng.sample_indices(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::vector<bool> seen(100, false);
  for (const std::size_t i : s) {
    ASSERT_LT(i, 100u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(14);
  const auto s = rng.sample_indices(5, 5);
  std::vector<std::size_t> sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_THROW((void)rng.sample_indices(3, 4), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// --- RunningStats / Summary ------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(16);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(0, 1);
    whole.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Summary, OrderStatistics) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.mean, 5.5);
  EXPECT_DOUBLE_EQ(s.p25, 3.25);
  EXPECT_DOUBLE_EQ(s.p75, 7.75);
}

TEST(Summary, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Percentile, EdgesAndInterpolation) {
  std::vector<double> v{10, 20, 30};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.25), 15.0);
  EXPECT_THROW((void)percentile_sorted(v, 1.5), PreconditionError);
}

TEST(Gini, KnownValues) {
  EXPECT_DOUBLE_EQ(gini(std::vector<double>{1, 1, 1, 1}), 0.0);
  // One owner of everything among n: gini = (n-1)/n.
  EXPECT_NEAR(gini(std::vector<double>{0, 0, 0, 10}), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(gini({}), 0.0);
  // gini() sorts a copy; gini_sorted() reads an already sorted sample.
  const std::vector<double> v{3, 0.5, 7, 2};
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(gini_sorted(sorted), gini(v));
  EXPECT_DOUBLE_EQ(gini_sorted({}), 0.0);
}

TEST(ImbalanceFactor, MaxOverMean) {
  EXPECT_DOUBLE_EQ(imbalance_factor(std::vector<double>{1, 1, 4}), 2.0);
  EXPECT_DOUBLE_EQ(imbalance_factor({}), 0.0);
}

// --- Histogram --------------------------------------------------------------

TEST(Histogram, BinPlacement) {
  Histogram h({0.0, 1.0, 2.0, 4.0});
  h.add(0.0);
  h.add(0.99);
  h.add(1.0);
  h.add(3.9);
  h.add(-1.0);  // underflow
  h.add(4.0);   // overflow (at last edge)
  EXPECT_EQ(h.bin_count(), 3u);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 6.0);
}

TEST(Histogram, WeightedFractions) {
  Histogram h = Histogram::uniform(0.0, 10.0, 2);
  h.add(1.0, 3.0);
  h.add(7.0, 1.0);
  const auto f = h.fractions();
  EXPECT_DOUBLE_EQ(f[0], 0.75);
  EXPECT_DOUBLE_EQ(f[1], 0.25);
  const auto c = h.cumulative_fractions();
  EXPECT_DOUBLE_EQ(c[0], 0.75);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
}

TEST(Histogram, RejectsBadEdges) {
  EXPECT_THROW(Histogram({1.0}), PreconditionError);
  EXPECT_THROW(Histogram({1.0, 1.0}), PreconditionError);
  EXPECT_THROW(Histogram({2.0, 1.0}), PreconditionError);
  Histogram h({0.0, 1.0});
  EXPECT_THROW(h.add(0.5, -1.0), PreconditionError);
}

TEST(Histogram, QuantileInterpolatesWithinTheCrossingBin) {
  Histogram h({0.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.add(5.0, 1.0);
  h.add(15.0, 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 10.0);  // exactly drains bin 0
  EXPECT_NEAR(h.quantile(0.50), 10.0 + 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.quantile(0.90), 10.0 + 10.0 * (2.6 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_THROW((void)h.quantile(-0.01), PreconditionError);
  EXPECT_THROW((void)h.quantile(1.01), PreconditionError);
}

TEST(Histogram, QuantileAttributesUnderAndOverflowToTheEdges) {
  Histogram h({0.0, 1.0});
  h.add(-5.0);  // underflow
  h.add(9.0);   // overflow
  // Half the mass sits below the range, half above: the estimate clamps
  // to the edges instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(Histogram, QuantileOfASingleSampleStaysInsideItsBin) {
  Histogram h({0.0, 10.0});
  h.add(5.0);
  // One sample: every quantile interpolates within the only occupied bin.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(WeightedCdf, CollapsesTiesAndNormalizes) {
  const std::vector<double> values{3.0, 1.0, 3.0, 2.0};
  const std::vector<double> weights{1.0, 2.0, 1.0, 1.0};
  const auto cdf = weighted_cdf(values, weights);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.4);
  EXPECT_DOUBLE_EQ(cdf[1].x, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 0.6);
  EXPECT_DOUBLE_EQ(cdf[2].x, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(WeightedFractionBelow, Thresholds) {
  const std::vector<double> values{1.0, 2.0, 3.0};
  const std::vector<double> weights{1.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(weight_fraction_below(values, weights, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(weight_fraction_below(values, weights, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(weight_fraction_below(values, weights, 3.0), 1.0);
}

// --- Table -------------------------------------------------------------------

TEST(Table, TextRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  std::ostringstream os;
  t.print_text(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(Csv, FieldQuotesPerRfc4180) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field(""), "");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("cr\rlf\n"), "\"cr\rlf\n\"");
}

TEST(Csv, ParseRecordInvertsFieldQuoting) {
  const std::vector<std::string> fields{"plain", "a,b", "say \"hi\"", ""};
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += csv_field(fields[i]);
  }
  EXPECT_EQ(parse_csv_record(line), fields);
  EXPECT_EQ(parse_csv_record(""), std::vector<std::string>{""});
}

TEST(Csv, ParseRecordRejectsMalformedQuoting) {
  EXPECT_THROW((void)parse_csv_record("\"unterminated"), PreconditionError);
  EXPECT_THROW((void)parse_csv_record("\"closed\"garbage"),
               PreconditionError);
}

TEST(Table, MarkdownRenderingEscapesPipes) {
  Table t({"metric", "value"});
  t.add_row({"a|b", "1"});
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_EQ(os.str(),
            "| metric | value |\n"
            "|---|---|\n"
            "| a\\|b | 1 |\n");
}

TEST(Table, RowWidthValidated) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, NumTrimsZeros) {
  EXPECT_EQ(Table::num(1.5, 4), "1.5");
  EXPECT_EQ(Table::num(2.0, 4), "2");
  EXPECT_EQ(Table::num(0.1234, 2), "0.12");
}

TEST(Table, MixedCellRowRendersStringsAndNumbers) {
  Table t({"metric", "count", "value"});
  // One braced row mixing a label, an integer and a double: integers
  // render without a decimal point, doubles through num().
  t.add_row({"p99", std::uint64_t{12}, 3.25});
  t.add_row({std::string("p50"), -4, 2.0});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(),
            "metric,count,value\n"
            "p99,12,3.25\n"
            "p50,-4,2\n");
}

TEST(Table, MixedCellRowWidthValidated) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one-cell", 1, 2.0}), PreconditionError);
}

// --- Cli -----------------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  Cli cli;
  cli.add_flag("nodes", "node count", "4096");
  cli.add_flag("ratio", "a ratio", "0.5");
  cli.add_flag("verbose", "chatty", "false");
  cli.add_flag("name", "label", "x");
  const char* argv[] = {"prog", "--nodes=128", "--ratio", "0.25",
                        "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("nodes"), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.25);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_string("name"), "x");
}

TEST(Cli, DefaultsHold) {
  Cli cli;
  cli.add_flag("k", "degree", "2");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("k"), 2);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli;
  cli.add_flag("k", "degree", "2");
  const char* bad1[] = {"prog", "--unknown=1"};
  EXPECT_THROW((void)cli.parse(2, bad1), PreconditionError);
  const char* bad2[] = {"prog", "positional"};
  EXPECT_THROW((void)cli.parse(2, bad2), PreconditionError);
  const char* bad3[] = {"prog", "--k=abc"};
  ASSERT_TRUE(cli.parse(2, bad3));
  EXPECT_THROW((void)cli.get_int("k"), PreconditionError);
}

TEST(Cli, ParsesLists) {
  Cli cli;
  cli.add_flag("ks", "degrees", "2,4,8");
  cli.add_flag("eps", "epsilons", "0,0.1");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int_list("ks"),
            (std::vector<std::int64_t>{2, 4, 8}));
  EXPECT_EQ(cli.get_double_list("eps"), (std::vector<double>{0.0, 0.1}));
}

TEST(Cli, RejectsOutOfRangeIntegers) {
  // strtoll clamps a value past 64 bits (ERANGE); the flag must not
  // silently read as INT64_MAX/MIN.
  Cli cli;
  cli.add_flag("n", "count", "99999999999999999999");
  cli.add_flag("m", "negative", "-99999999999999999999");
  cli.add_flag("ns", "counts", "1,99999999999999999999");
  cli.add_flag("edge", "largest", "9223372036854775807");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW((void)cli.get_int("n"), PreconditionError);
  EXPECT_THROW((void)cli.get_int("m"), PreconditionError);
  EXPECT_THROW((void)cli.get_int_list("ns"), PreconditionError);
  EXPECT_EQ(cli.get_int("edge"), INT64_MAX);
}

TEST(Cli, CountsTakeDecimalDigitsUpToTheirMaximum) {
  Cli cli;
  cli.add_flag("zero", "", "0");
  cli.add_flag("top", "", "18446744073709551615");
  cli.add_flag("bits", "", "4294967295");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_count("zero"), 0u);
  EXPECT_EQ(cli.get_count("top"), UINT64_MAX);
  EXPECT_EQ(cli.get_count("bits", UINT32_MAX), UINT32_MAX);
}

TEST(Cli, CountsRejectSignsJunkAndOverflowNamingTheFlag) {
  // A count never wraps: "-1" must not read as SIZE_MAX, nor "-5" as 0.
  for (const char* bad : {"-1", "+3", " 3", "3 ", "3x", "0x10", "", "1.5",
                          "18446744073709551616"}) {
    Cli cli;
    cli.add_flag("nodes", "", "1");
    const char* argv[] = {"prog", "--nodes", bad};
    ASSERT_TRUE(cli.parse(3, argv));
    try {
      (void)cli.get_count("nodes");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("--nodes must be a decimal count"),
                std::string::npos)
          << e.what();
    }
  }
  // Past the field's own maximum.
  Cli cli;
  cli.add_flag("bits", "", "4294967296");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW((void)cli.get_count("bits", UINT32_MAX), PreconditionError);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli;
  cli.add_flag("k", "degree", "2");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

}  // namespace
}  // namespace p2plb
