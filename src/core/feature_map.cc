#include "core/feature_map.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace m3 {

const std::array<Bytes, kNumSizeBuckets - 1>& SizeBucketEdges() {
  static const std::array<Bytes, kNumSizeBuckets - 1> edges{
      250, 500, 1000, 2000, 5000, 10000, 20000, 30000, 50000};
  return edges;
}

const std::array<Bytes, kNumOutputBuckets - 1>& OutputBucketEdges() {
  static const std::array<Bytes, kNumOutputBuckets - 1> edges{1000, 10000, 50000};
  return edges;
}

int SizeBucketOf(Bytes size) {
  const auto& edges = SizeBucketEdges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (size <= edges[i]) return static_cast<int>(i);
  }
  return kNumSizeBuckets - 1;
}

int OutputBucketOf(Bytes size) {
  const auto& edges = OutputBucketEdges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (size <= edges[i]) return static_cast<int>(i);
  }
  return kNumOutputBuckets - 1;
}

FeatureMap BuildFeatureMap(const std::vector<SizedSlowdown>& flows) {
  std::array<std::vector<double>, kNumSizeBuckets> buckets;
  for (const SizedSlowdown& f : flows) {
    buckets[static_cast<std::size_t>(SizeBucketOf(f.size))].push_back(f.slowdown);
  }
  FeatureMap map;
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    auto& v = buckets[static_cast<std::size_t>(b)];
    map.counts[static_cast<std::size_t>(b)] = static_cast<double>(v.size());
    if (v.empty()) continue;
    const std::vector<double> pct = PercentileVector100(std::move(v));
    for (int p = 0; p < kNumPercentiles; ++p) {
      map.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)] = pct[static_cast<std::size_t>(p)];
    }
  }
  return map;
}

ml::Tensor FlattenFeature(const FeatureMap& map) {
  ml::Tensor out(1, kFeatureDim);
  int idx = 0;
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    for (int p = 0; p < kNumPercentiles; ++p) {
      const double s = map.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
      out.at(0, idx++) = s > 0.0 ? static_cast<float>(std::log(s)) : 0.0f;
    }
  }
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    out.at(0, idx++) =
        static_cast<float>(std::log1p(map.counts[static_cast<std::size_t>(b)]) / 10.0);
  }
  return out;
}

TargetDist BuildTarget(const std::vector<SizedSlowdown>& flows) {
  std::array<std::vector<double>, kNumOutputBuckets> buckets;
  for (const SizedSlowdown& f : flows) {
    buckets[static_cast<std::size_t>(OutputBucketOf(f.size))].push_back(f.slowdown);
  }
  TargetDist t;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    auto& v = buckets[static_cast<std::size_t>(b)];
    t.counts[static_cast<std::size_t>(b)] = static_cast<double>(v.size());
    if (v.empty()) continue;
    t.has[static_cast<std::size_t>(b)] = true;
    const std::vector<double> pct = PercentileVector100(std::move(v));
    for (int p = 0; p < kNumPercentiles; ++p) {
      t.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)] = pct[static_cast<std::size_t>(p)];
    }
  }
  return t;
}

ml::Tensor TargetToTensor(const TargetDist& t) {
  ml::Tensor out(1, kNumOutputBuckets * kNumPercentiles);
  int idx = 0;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    for (int p = 0; p < kNumPercentiles; ++p) {
      const double s = t.pct[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)];
      out.at(0, idx++) = s > 0.0 ? static_cast<float>(std::log(s)) : 0.0f;
    }
  }
  return out;
}

ml::Tensor TargetMask(const TargetDist& t) {
  ml::Tensor out(1, kNumOutputBuckets * kNumPercentiles);
  int idx = 0;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    const float m = t.has[static_cast<std::size_t>(b)] ? 1.0f : 0.0f;
    for (int p = 0; p < kNumPercentiles; ++p) out.at(0, idx++) = m;
  }
  return out;
}

std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> DecodeOutput(
    const ml::Tensor& out, int* num_nonfinite) {
  return DecodeOutput(out.data(), num_nonfinite);
}

std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> DecodeOutput(
    const float* out, int* num_nonfinite) {
  std::array<std::array<double, kNumPercentiles>, kNumOutputBuckets> dist{};
  int bad = 0;
  int idx = 0;
  for (int b = 0; b < kNumOutputBuckets; ++b) {
    for (int p = 0; p < kNumPercentiles; ++p) {
      const double raw = std::exp(static_cast<double>(out[idx++]));
      // NaN would silently survive std::max (max(1.0, NaN) == 1.0); make the
      // clamp explicit and count what it absorbed.
      if (!std::isfinite(raw)) ++bad;
      dist[static_cast<std::size_t>(b)][static_cast<std::size_t>(p)] =
          std::isfinite(raw) ? std::max(1.0, raw) : 1.0;
    }
    // Percentile vectors are monotone by construction; enforce it on the
    // decoded prediction as well.
    for (int p = 1; p < kNumPercentiles; ++p) {
      auto& row = dist[static_cast<std::size_t>(b)];
      row[static_cast<std::size_t>(p)] =
          std::max(row[static_cast<std::size_t>(p)], row[static_cast<std::size_t>(p - 1)]);
    }
  }
  if (num_nonfinite != nullptr) *num_nonfinite = bad;
  return dist;
}

}  // namespace m3
