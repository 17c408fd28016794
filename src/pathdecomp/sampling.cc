#include "pathdecomp/sampling.h"

namespace m3 {

std::vector<std::size_t> SamplePaths(const PathDecomposition& decomp, int k, Rng& rng) {
  // Foreground counts are integers, so the draws match the sequential
  // weighted-index rule exactly (see WeightedSampler).
  const WeightedSampler sampler(decomp.ForegroundWeights());
  std::vector<std::size_t> sample;
  sample.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) sample.push_back(sampler.Draw(rng));
  return sample;
}

PathSampleStats ComputePathSampleStats(const PathDecomposition& decomp,
                                       const std::vector<std::size_t>& sample) {
  PathSampleStats stats;
  stats.hop_counts.reserve(sample.size());
  stats.fg_counts.reserve(sample.size());
  stats.bg_counts.reserve(sample.size());
  for (std::size_t idx : sample) {
    const PathInfo& p = decomp.path(idx);
    stats.hop_counts.push_back(static_cast<int>(p.links.size()));
    stats.fg_counts.push_back(static_cast<int>(p.fg_flows.size()));
    stats.bg_counts.push_back(static_cast<int>(decomp.BackgroundFlows(idx).size()));
  }
  return stats;
}

}  // namespace m3
