// Property-style tests of the estimation pipeline pieces that the main
// suites don't cover directly.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>

#include "core/aggregate.h"
#include "core/dataset.h"
#include "core/feature_map.h"
#include "core/scenario.h"
#include "util/stats.h"

namespace m3 {
namespace {

TEST(AggregateProps, WeightedPercentileMatchesUnweightedWhenUniform) {
  Rng rng(3);
  std::vector<double> plain;
  std::vector<std::pair<double, double>> weighted;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Uniform(0.0, 100.0);
    plain.push_back(v);
    weighted.emplace_back(v, 1.0);
  }
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    // Nearest-rank weighted percentile vs interpolated percentile: allow a
    // one-rank tolerance band.
    const double w = WeightedPercentile(weighted, p);
    const double u = Percentile(plain, p);
    EXPECT_NEAR(w, u, 2.0) << "p" << p;
  }
}

TEST(AggregateProps, DoublingAllWeightsIsInvariant) {
  std::vector<std::pair<double, double>> w1{{1, 1}, {5, 2}, {9, 1}};
  std::vector<std::pair<double, double>> w2{{1, 2}, {5, 4}, {9, 2}};
  for (double p : {25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(WeightedPercentile(w1, p), WeightedPercentile(w2, p));
  }
}

// CombineBuckets sorts once and sweeps all 100 percentiles; its oracle is
// the per-percentile WeightedPercentile loop over the same pairs.
TEST(AggregateProps, CombineBucketsMatchesPerPercentileWeightedPercentile) {
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    std::array<std::vector<double>, kNumOutputBuckets> bucket_pct;
    std::array<double, kNumOutputBuckets> counts{};
    std::vector<std::pair<double, double>> weighted;
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      auto& pct = bucket_pct[static_cast<std::size_t>(b)];
      // A single entry, an empty bucket, or a full percentile vector.
      const int len = rng.NextBounded(4) == 0 ? 1 : (rng.NextBounded(5) == 0 ? 0 : 100);
      const bool ties = rng.NextBounded(2) == 0;  // few distinct values
      for (int i = 0; i < len; ++i) {
        pct.push_back(ties ? 1.0 + 0.5 * static_cast<double>(rng.NextBounded(4))
                           : rng.Uniform(1.0, 50.0));
      }
      // Zero, integral or fractional bucket counts.
      double& c = counts[static_cast<std::size_t>(b)];
      const std::uint64_t kind = rng.NextBounded(4);
      c = kind == 0   ? 0.0
          : kind == 1 ? rng.Uniform(0.1, 300.0)
                      : static_cast<double>(1 + rng.NextBounded(500));
      if (pct.empty() || c <= 0.0) continue;
      for (double v : pct) weighted.emplace_back(v, c / static_cast<double>(pct.size()));
    }
    const std::vector<double> got = CombineBuckets(bucket_pct, counts);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kNumPercentiles));
    for (int p = 1; p <= kNumPercentiles; ++p) {
      const double want = WeightedPercentile(weighted, static_cast<double>(p));
      const double g = got[static_cast<std::size_t>(p - 1)];
      ASSERT_EQ(std::memcmp(&g, &want, sizeof(double)), 0)
          << "trial " << trial << " p" << p << ": " << g << " vs " << want;
    }
  }
}

TEST(AggregateProps, AggregationIsPermutationInvariant) {
  Rng rng(7);
  std::vector<PathEstimate> paths(6);
  for (auto& pe : paths) {
    for (int b = 0; b < kNumOutputBuckets; ++b) {
      pe.counts[static_cast<std::size_t>(b)] = static_cast<double>(rng.NextBounded(50));
      double v = rng.Uniform(1.0, 3.0);
      for (int p = 0; p < kNumPercentiles; ++p) {
        v += rng.Uniform(0.0, 0.05);
        pe.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)] = v;
      }
    }
  }
  const auto fwd = AggregateBuckets(paths);
  std::vector<PathEstimate> reversed(paths.rbegin(), paths.rend());
  const auto rev = AggregateBuckets(reversed);
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    ASSERT_EQ(fwd[static_cast<std::size_t>(b)].size(), rev[static_cast<std::size_t>(b)].size());
    for (std::size_t p = 0; p < fwd[static_cast<std::size_t>(b)].size(); ++p) {
      EXPECT_DOUBLE_EQ(fwd[static_cast<std::size_t>(b)][p], rev[static_cast<std::size_t>(b)][p]);
    }
  }
}

TEST(AggregateProps, CombinedDistributionBoundedByBucketExtremes) {
  std::array<std::vector<double>, kNumOutputBuckets> bucket_pct;
  std::array<double, kNumOutputBuckets> counts{};
  Rng rng(11);
  double lo = 1e18, hi = -1e18;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    double v = rng.Uniform(1.0, 5.0);
    for (int p = 0; p < kNumPercentiles; ++p) {
      v += rng.Uniform(0.0, 0.1);
      bucket_pct[static_cast<std::size_t>(b)].push_back(v);
    }
    counts[static_cast<std::size_t>(b)] = 10.0 + static_cast<double>(b);
    lo = std::min(lo, bucket_pct[static_cast<std::size_t>(b)].front());
    hi = std::max(hi, bucket_pct[static_cast<std::size_t>(b)].back());
  }
  const auto combined = CombineBuckets(bucket_pct, counts);
  EXPECT_GE(combined.front(), lo - 1e-9);
  EXPECT_LE(combined.back(), hi + 1e-9);
}

TEST(FeatureProps, FeatureMapInvariantToFlowOrder) {
  Rng rng(13);
  std::vector<SizedSlowdown> flows;
  for (int i = 0; i < 300; ++i) {
    flows.push_back({static_cast<Bytes>(100 + rng.NextBounded(100000)),
                     1.0 + rng.NextDouble() * 5.0});
  }
  const ml::Tensor a = FlattenFeature(BuildFeatureMap(flows));
  std::vector<SizedSlowdown> shuffled(flows.rbegin(), flows.rend());
  const ml::Tensor b = FlattenFeature(BuildFeatureMap(shuffled));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.vec()[i], b.vec()[i]);
  }
}

TEST(FeatureProps, ScalingSlowdownsShiftsLogFeaturesUniformly) {
  std::vector<SizedSlowdown> flows;
  for (int i = 0; i < 100; ++i) flows.push_back({200, 2.0 + 0.01 * i});  // bucket 0
  std::vector<SizedSlowdown> scaled = flows;
  for (auto& f : scaled) f.slowdown *= 2.0;
  const ml::Tensor a = FlattenFeature(BuildFeatureMap(flows));
  const ml::Tensor b = FlattenFeature(BuildFeatureMap(scaled));
  // Log-space: percentile entries of the populated bucket shift by log(2).
  for (int p = 0; p < kNumPercentiles; ++p) {
    EXPECT_NEAR(b.at(0, p) - a.at(0, p), std::log(2.0), 1e-4);
  }
  // Count entries are unchanged.
  for (int c = 0; c < kNumSizeBuckets; ++c) {
    EXPECT_FLOAT_EQ(a.at(0, 1000 + c), b.at(0, 1000 + c));
  }
}

TEST(ScenarioProps, BackgroundSpansNeverCoverFullPath) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const SyntheticSpec spec = SyntheticSpec::Sample(rng, 100);
    const PathScenario sc = BuildSyntheticScenario(spec);
    for (std::size_t i = 0; i < sc.flows.size(); ++i) {
      if (sc.is_fg[i]) {
        EXPECT_EQ(sc.entry_hop[i], 0);
        EXPECT_EQ(sc.exit_hop[i], sc.num_links);
      } else {
        EXPECT_FALSE(sc.entry_hop[i] == 0 && sc.exit_hop[i] == sc.num_links);
        EXPECT_LT(sc.entry_hop[i], sc.exit_hop[i]);
        EXPECT_GE(sc.entry_hop[i], 0);
        EXPECT_LE(sc.exit_hop[i], sc.num_links);
      }
    }
  }
}

TEST(ScenarioProps, FeatureExtractionAssignsBgToCoveredLinksOnly) {
  SyntheticSpec spec;
  spec.num_links = 4;
  spec.num_fg = 50;
  spec.bg_ratio = 1.0;
  spec.seed = 23;
  const PathScenario sc = BuildSyntheticScenario(spec);
  const auto fluid = RunPathFlowSim(sc);
  const ScenarioFeatures feats = ExtractFeatures(sc, fluid);

  // Reconstruct expected per-link bg counts from the scenario and compare
  // with the count channel of each bg feature row (log1p(count)/10).
  std::array<int, 4> expected{};
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    if (sc.is_fg[i]) continue;
    for (int h = sc.entry_hop[i]; h < sc.exit_hop[i]; ++h) expected[static_cast<std::size_t>(h)]++;
  }
  for (int h = 0; h < 4; ++h) {
    double count_feature_sum = 0.0;
    for (int c = 0; c < kNumSizeBuckets; ++c) {
      count_feature_sum +=
          std::expm1(static_cast<double>(feats.bg_seq.at(h, 1000 + c)) * 10.0);
    }
    EXPECT_NEAR(count_feature_sum, static_cast<double>(expected[static_cast<std::size_t>(h)]),
                0.5 + 0.01 * expected[static_cast<std::size_t>(h)]);
  }
}

}  // namespace
}  // namespace m3
