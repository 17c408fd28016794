#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/cdf.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace m3 {
namespace {

// ---------------------------------------------------------------- units ---

TEST(Units, GbpsConversionRoundTrips) {
  EXPECT_DOUBLE_EQ(GbpsToBpns(10.0), 1.25);
  EXPECT_DOUBLE_EQ(BpnsToGbps(GbpsToBpns(40.0)), 40.0);
}

TEST(Units, TransmissionTimeExactForCleanDivisions) {
  // 1000B at 10 Gbps (1.25 B/ns) = 800 ns exactly.
  EXPECT_EQ(TransmissionTime(1000, GbpsToBpns(10.0)), 800);
  // 1048B at 40 Gbps (5 B/ns) = 209.6 -> rounds up to 210.
  EXPECT_EQ(TransmissionTime(1048, GbpsToBpns(40.0)), 210);
}

TEST(Units, TransmissionTimeRoundsUpNotDown) {
  const Ns t = TransmissionTime(1, GbpsToBpns(100.0));  // 0.08 ns
  EXPECT_EQ(t, 1);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU32() == b.NextU32());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBoundedIsInRangeAndRoughlyUniform) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.NextBounded(10);
    ASSERT_LT(v, 10u);
    counts[static_cast<std::size_t>(v)]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = r.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ParetoRespectsScaleAndMean) {
  Rng r(17);
  // alpha=2, xm=1 -> mean = 2.
  double sum = 0.0;
  double min_v = 1e9;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = r.Pareto(1.0, 2.0);
    sum += v;
    min_v = std::min(min_v, v);
  }
  EXPECT_GE(min_v, 1.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, LogNormalMeanMatches) {
  Rng r(19);
  // mu=0, sigma=1 -> mean = exp(0.5).
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += r.LogNormal(0.0, 1.0);
  EXPECT_NEAR(sum / n, std::exp(0.5), 0.05);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng r(23);
  const WeightedSampler sampler({1.0, 0.0, 3.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) counts[sampler.Draw(r)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(31);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU32() == b.NextU32());
  EXPECT_LT(same, 4);
  // Forking with the same label twice gives the same stream.
  Rng base2(31);
  Rng a2 = base2.Fork(1);
  Rng a3 = Rng(31).Fork(1);
  EXPECT_EQ(a2.NextU64(), a3.NextU64());
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, PercentileBasics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(Stats, PercentileInterpolatesLinearly) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 9.9);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99), 7.0);
}

TEST(Stats, PercentileVector100HasCorrectShape) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const auto p = PercentileVector100(v);
  ASSERT_EQ(p.size(), 100u);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
  EXPECT_DOUBLE_EQ(p.back(), 1000.0);
  EXPECT_NEAR(p[49 - 1], 490.0, 1.0);  // 49th percentile
}

TEST(Stats, RelativeErrorSignConvention) {
  EXPECT_DOUBLE_EQ(RelativeError(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(9.0, 10.0), -0.1);
  EXPECT_DOUBLE_EQ(RelativeError(5.0, 0.0), 0.0);
}

TEST(Stats, SummarizeOrdering) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(static_cast<double>(i));
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
}

// ------------------------------------------------------------------ cdf ---

TEST(Cdf, QuantileAndCdfAreInverses) {
  PiecewiseCdf cdf({{100, 0.5}, {1000, 1.0}});
  for (double u : {0.1, 0.3, 0.5, 0.7, 0.95}) {
    EXPECT_NEAR(cdf.Cdf(cdf.Quantile(u)), u, 1e-9);
  }
}

TEST(Cdf, MeanMatchesSampling) {
  PiecewiseCdf cdf({{100, 0.3}, {1000, 0.8}, {10000, 1.0}});
  Rng rng(5);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += cdf.Sample(rng);
  EXPECT_NEAR(sum / n / cdf.Mean(), 1.0, 0.02);
}

TEST(Cdf, SamplesWithinSupport) {
  PiecewiseCdf cdf({{200, 0.4}, {5000, 1.0}});
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = cdf.Sample(rng);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 5000.0);
  }
}

TEST(Cdf, RejectsInvalidInput) {
  EXPECT_THROW(PiecewiseCdf({}), std::invalid_argument);
  EXPECT_THROW(PiecewiseCdf({{-5, 1.0}}), std::invalid_argument);
}

TEST(Cdf, NormalizesUnsortedAndUncappedPoints) {
  PiecewiseCdf cdf({{1000, 0.9}, {100, 0.5}});
  EXPECT_DOUBLE_EQ(cdf.points().back().prob, 1.0);
  EXPECT_LE(cdf.points().front().value, cdf.points().back().value);
}

}  // namespace
}  // namespace m3
