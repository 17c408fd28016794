#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace m3 {

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  SplitMix64 sm(seed);
  state_ = sm.Next();
  inc_ = sm.Next() | 1ULL;  // stream selector must be odd
  NextU32();                // advance past the low-entropy first output
}

std::uint32_t Rng::NextU32() noexcept {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const std::uint32_t xorshifted =
      static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
  const std::uint32_t rot = static_cast<std::uint32_t>(old >> 59);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

std::uint64_t Rng::NextU64() noexcept {
  return (static_cast<std::uint64_t>(NextU32()) << 32) | NextU32();
}

double Rng::NextDouble() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Rng::NextBounded(std::uint64_t n) noexcept {
  // Lemire-style rejection on 64 bits would need 128-bit math; the classic
  // modulo-threshold rejection is fine here.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] so log() is finite.
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) noexcept {
  return mean + stddev * Normal();
}

double Rng::Exponential(double mean) noexcept {
  return -mean * std::log(1.0 - NextDouble());
}

double Rng::LogNormal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * Normal());
}

double Rng::Pareto(double xm, double alpha) noexcept {
  const double u = 1.0 - NextDouble();  // in (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

RngState Rng::SaveState() const noexcept {
  return RngState{state_, inc_, seed_, cached_normal_, has_cached_normal_};
}

void Rng::RestoreState(const RngState& s) noexcept {
  state_ = s.state;
  inc_ = s.inc;
  seed_ = s.seed;
  cached_normal_ = s.cached_normal;
  has_cached_normal_ = s.has_cached_normal;
}

Rng Rng::Fork(std::uint64_t label) noexcept {
  SplitMix64 sm(seed_ ^ (label * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
  return Rng(sm.Next());
}

WeightedSampler::WeightedSampler(const std::vector<double>& weights) {
  prefix_.reserve(weights.size());
  double total = 0.0;
  for (double w : weights) {
    total += (w > 0.0 ? w : 0.0);
    prefix_.push_back(total);
  }
}

std::size_t WeightedSampler::Draw(Rng& rng) const noexcept {
  const double target = rng.NextDouble() * (prefix_.empty() ? 0.0 : prefix_.back());
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), target);
  if (it != prefix_.end()) return static_cast<std::size_t>(it - prefix_.begin());
  // Floating-point slop: fall back to the last positive weight.
  for (std::size_t i = prefix_.size(); i-- > 0;) {
    if (prefix_[i] > (i > 0 ? prefix_[i - 1] : 0.0)) return i;
  }
  return 0;
}

}  // namespace m3
