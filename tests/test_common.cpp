// Unit tests for the common substrate: units, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace monde {
namespace {

// --- Duration ---------------------------------------------------------------

TEST(Duration, ConversionsRoundTrip) {
  const Duration d = Duration::micros(12.5);
  EXPECT_DOUBLE_EQ(d.ns(), 12500.0);
  EXPECT_DOUBLE_EQ(d.us(), 12.5);
  EXPECT_DOUBLE_EQ(d.ms(), 0.0125);
  EXPECT_DOUBLE_EQ(d.sec(), 12.5e-6);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::nanos(100);
  const Duration b = Duration::nanos(50);
  EXPECT_DOUBLE_EQ((a + b).ns(), 150.0);
  EXPECT_DOUBLE_EQ((a - b).ns(), 50.0);
  EXPECT_DOUBLE_EQ((a * 2.0).ns(), 200.0);
  EXPECT_DOUBLE_EQ((a / 4.0).ns(), 25.0);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_EQ(max(a, b), a);
  EXPECT_EQ(min(a, b), b);
}

TEST(Duration, ComparisonAndAccumulation) {
  Duration t = Duration::zero();
  t += Duration::millis(1);
  t += Duration::micros(500);
  EXPECT_DOUBLE_EQ(t.ms(), 1.5);
  EXPECT_LT(Duration::nanos(1), Duration::micros(1));
  EXPECT_GT(Duration::infinite(), Duration::seconds(1e9));
}

TEST(Duration, HumanReadableString) {
  EXPECT_EQ(Duration::nanos(12).str(), "12.000 ns");
  EXPECT_EQ(Duration::micros(3.5).str(), "3.500 us");
  EXPECT_EQ(Duration::millis(7).str(), "7.000 ms");
  EXPECT_EQ(Duration::seconds(2).str(), "2.000 s");
}

// --- Bytes -------------------------------------------------------------------

TEST(Bytes, UnitsAndArithmetic) {
  EXPECT_EQ(Bytes::kib(1).count(), 1024u);
  EXPECT_EQ(Bytes::mib(1).count(), 1024u * 1024u);
  EXPECT_EQ(Bytes::gib(1).count(), 1024ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(Bytes::gib(2).as_gib(), 2.0);
  EXPECT_EQ((Bytes{100} + Bytes{28}).count(), 128u);
  EXPECT_EQ((Bytes{100} * std::uint64_t{3}).count(), 300u);
}

TEST(Bytes, DecimalGb) {
  EXPECT_DOUBLE_EQ(Bytes{1'000'000'000}.as_gb(), 1.0);
}

// --- Bandwidth / transfer math -------------------------------------------------

TEST(Bandwidth, TransferTime) {
  // 1 GB at 1 GB/s takes exactly 1 s.
  const Duration t = transfer_time(Bytes{1'000'000'000}, Bandwidth::gbps(1.0));
  EXPECT_NEAR(t.sec(), 1.0, 1e-12);
}

TEST(Bandwidth, ComputeTime) {
  const Duration t = compute_time(2e12, Flops::tflops(1.0));
  EXPECT_NEAR(t.sec(), 2.0, 1e-12);
}

TEST(Bandwidth, Scaling) {
  const Bandwidth bw = Bandwidth::gbps(10.0) * 2.0;
  EXPECT_DOUBLE_EQ(bw.as_gbps(), 20.0);
  EXPECT_DOUBLE_EQ((Bandwidth::gbps(30.0) / Bandwidth::gbps(10.0)), 3.0);
}

// --- Rng ----------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng r{9};
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(7), 7u);
  EXPECT_THROW(r.next_below(0), Error);
}

TEST(Rng, NormalMoments) {
  Rng r{11};
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, GammaPositiveAndMeanMatchesShape) {
  Rng r{13};
  RunningStat s;
  for (int i = 0; i < 50000; ++i) {
    const double g = r.gamma(3.0);
    EXPECT_GT(g, 0.0);
    s.add(g);
  }
  EXPECT_NEAR(s.mean(), 3.0, 0.1);  // Gamma(k, 1) has mean k
  EXPECT_THROW(r.gamma(0.0), Error);
}

TEST(Rng, GammaSubUnityShape) {
  Rng r{17};
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(r.gamma(0.5));
  EXPECT_NEAR(s.mean(), 0.5, 0.05);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng r{19};
  std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) counts[r.categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
  EXPECT_THROW(r.categorical({}), Error);
  EXPECT_THROW(r.categorical({0.0, 0.0}), Error);
  EXPECT_THROW(r.categorical({-1.0, 2.0}), Error);
}

TEST(Rng, ForkDiverges) {
  Rng parent{21};
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, ZipfWeightsNormalizedAndMonotone) {
  const auto w = zipf_weights(100, 1.2);
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    total += w[i];
    if (i > 0) {
      EXPECT_LE(w[i], w[i - 1]);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_THROW(zipf_weights(0, 1.0), Error);
}

TEST(Rng, DirichletSumsToOne) {
  Rng r{23};
  const auto w = dirichlet(r, 16, 0.5);
  double total = 0.0;
  for (const double v : w) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Rng, MultinomialConservesTrials) {
  Rng r{25};
  const auto counts = multinomial(r, 5000, {0.2, 0.3, 0.5});
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, 5000u);
  EXPECT_NEAR(static_cast<double>(counts[2]), 2500.0, 150.0);
}

// --- Stats ---------------------------------------------------------------------

TEST(RunningStat, KnownSequence) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, BucketingIsHalfOpen) {
  Histogram h{{1.0, 4.0, 8.0}};
  h.add(0);    // bucket 0: [<, 1)
  h.add(1);    // bucket 1: [1, 4)
  h.add(3);    // bucket 1
  h.add(4);    // bucket 2: [4, 8)
  h.add(7);    // bucket 2
  h.add(8);    // overflow: >= 8
  h.add(100);  // overflow
  EXPECT_DOUBLE_EQ(h.bucket(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket(2), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket(3), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 7.0);
}

TEST(Histogram, FractionalBoundsBucketHalfOpen) {
  // Latency-ms style buckets; a value on a bound belongs to the bucket above.
  Histogram h{{0.5, 2.5, 10.0}};
  h.add(0.49);  // bucket 0
  h.add(0.5);   // bucket 1
  h.add(2.49);  // bucket 1
  h.add(2.5);   // bucket 2
  h.add(10.0);  // overflow
  EXPECT_DOUBLE_EQ(h.bucket(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket(2), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket(3), 1.0);
}

TEST(Histogram, LabelsMatchPaperFigure3) {
  Histogram h = make_token_histogram();
  EXPECT_EQ(h.bucket_count(), 8u);
  EXPECT_EQ(h.bucket_label(0), "0");
  EXPECT_EQ(h.bucket_label(1), "1-3");
  EXPECT_EQ(h.bucket_label(2), "4-7");
  EXPECT_EQ(h.bucket_label(6), "64-127");
  EXPECT_EQ(h.bucket_label(7), "128+");
}

TEST(Histogram, FractionalBoundsLabelAsIntervals) {
  // Regression: the old labels assumed integer width->=1 bounds and printed
  // overlapping ranges like "1-2" / "1-2" for fractional bounds.
  Histogram h{{0.5, 2.5}};
  EXPECT_EQ(h.bucket_label(0), "[0, 0.5)");
  EXPECT_EQ(h.bucket_label(1), "[0.5, 2.5)");
  EXPECT_EQ(h.bucket_label(2), "2.5+");
  // Integral bounds of width 1 still collapse to a single count label.
  Histogram g{{1.0, 2.0}};
  EXPECT_EQ(g.bucket_label(0), "0");
  EXPECT_EQ(g.bucket_label(1), "1");
  EXPECT_EQ(g.bucket_label(2), "2+");
}

TEST(Histogram, ScaleDividesCounts) {
  Histogram h{{1.0}};
  h.add(0.5);
  h.add(0.5);
  h.scale(0.5);
  EXPECT_DOUBLE_EQ(h.bucket(0), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 1.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
}

TEST(Stats, PercentileLinearInterpolation) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);   // midpoint of 2 and 3
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);  // rank 0.75 between 1 and 2
}

TEST(Stats, PercentileSingleElementAndErrors) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_THROW((void)percentile({}, 50.0), Error);
  EXPECT_THROW((void)percentile({1.0}, -1.0), Error);
  EXPECT_THROW((void)percentile({1.0}, 101.0), Error);
}

TEST(Stats, PercentilesTrioMatchesPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Percentiles p = compute_percentiles(v);
  EXPECT_DOUBLE_EQ(p.p50, percentile(v, 50.0));
  EXPECT_DOUBLE_EQ(p.p95, percentile(v, 95.0));
  EXPECT_DOUBLE_EQ(p.p99, percentile(v, 99.0));
  EXPECT_LE(p.p50, p.p95);
  EXPECT_LE(p.p95, p.p99);
  EXPECT_THROW((void)compute_percentiles({}), Error);
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_THROW((void)geomean({}), Error);
  EXPECT_THROW((void)geomean({1.0, -1.0}), Error);
}

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
  EXPECT_THROW((void)mean({}), Error);
}

TEST(Stats, ImbalanceFactor) {
  EXPECT_DOUBLE_EQ(imbalance_factor({3.0, 3.0, 3.0}), 1.0);  // balanced
  EXPECT_DOUBLE_EQ(imbalance_factor({6.0, 0.0, 0.0}), 3.0);  // one does it all
  EXPECT_DOUBLE_EQ(imbalance_factor({0.0, 0.0}), 0.0);       // idle fleet
  EXPECT_THROW((void)imbalance_factor({}), Error);
  EXPECT_THROW((void)imbalance_factor({1.0, -1.0}), Error);
}

// --- Table -----------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvFormat) {
  Table t{{"a", "b"}};
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsArityMismatch) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
}

// --- Error macros -------------------------------------------------------------------

TEST(Error, RequireThrowsWithMessage) {
  try {
    MONDE_REQUIRE(1 == 2, "math is broken: " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("math is broken: 42"), std::string::npos);
  }
}

// --- Bench command line ------------------------------------------------------

bench::BenchArgs parse(std::vector<std::string> words) {
  words.insert(words.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return bench::parse_bench_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, ParsesSharedFlags) {
  const bench::BenchArgs a =
      parse({"--smoke", "--json", "m.json", "--perf", "p.json", "--threads", "8"});
  EXPECT_TRUE(a.smoke);
  EXPECT_EQ(a.json_path, "m.json");
  EXPECT_EQ(a.perf_path, "p.json");
  EXPECT_EQ(a.threads, 8u);
}

TEST(BenchArgs, BadArgumentExitsWithUsage) {
  // A bad command line prints the reason and the usage line and exits 2,
  // not an uncaught-exception abort.
  const auto usage = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"--json"}), usage, "--json needs a <path> argument\nusage: bench ");
  EXPECT_EXIT(parse({"--perf"}), usage, "--perf needs a <path> argument");
  EXPECT_EXIT(parse({"--threads", "0"}), usage, "positive integer, got '0'");
  EXPECT_EXIT(parse({"--threads", "4x"}), usage, "positive integer, got '4x'");
  EXPECT_EXIT(parse({"--fast"}), usage, "unknown bench argument '--fast'");
}

}  // namespace
}  // namespace monde
