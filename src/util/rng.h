// Deterministic random number generation.
//
// All stochastic components in m3 draw from Pcg32 seeded through SplitMix64,
// with hand-written inverse-transform / Box-Muller samplers so that a given
// seed produces identical streams on every platform and standard library.
#pragma once

#include <cstdint>
#include <vector>

namespace m3 {

/// SplitMix64: used to expand user seeds into well-mixed state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t Next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Complete serializable state of an Rng. Capturing and later restoring it
/// resumes the stream exactly where it left off (including the cached
/// Box-Muller variate), which is what checkpoint/resume relies on for
/// bitwise-reproducible training.
struct RngState {
  std::uint64_t state = 0;
  std::uint64_t inc = 0;
  std::uint64_t seed = 0;
  double cached_normal = 0.0;
  bool has_cached_normal = false;
};

/// PCG-XSH-RR 32-bit generator (O'Neill 2014).
class Rng {
 public:
  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 32-bit value.
  std::uint32_t NextU32() noexcept;

  /// Uniform 64-bit value.
  std::uint64_t NextU64() noexcept;

  /// Uniform double in [0, 1).
  double NextDouble() noexcept;

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling, so
  /// the result is unbiased.
  std::uint64_t NextBounded(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (caches the second variate).
  double Normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) noexcept;

  /// Exponential with the given mean (inverse transform).
  double Exponential(double mean) noexcept;

  /// Log-normal parameterized by the underlying normal's mu and sigma.
  double LogNormal(double mu, double sigma) noexcept;

  /// Pareto with scale xm > 0 and shape alpha > 0.
  double Pareto(double xm, double alpha) noexcept;

  /// Derives an independent child generator; distinct labels give
  /// statistically independent streams.
  Rng Fork(std::uint64_t label) noexcept;

  /// Snapshot of the full generator state for checkpointing.
  RngState SaveState() const noexcept;

  /// Restores a state captured by SaveState(); the stream continues exactly
  /// from the capture point.
  void RestoreState(const RngState& s) noexcept;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  std::uint64_t seed_;  // retained for Fork()
};

/// Draws indices in [0, weights.size()) with probability proportional to
/// weights[i]; negative weights count as zero. The prefix sums are built
/// once and each draw binary-searches them, consuming one NextDouble().
/// Requires at least one strictly positive weight.
///
/// For integer-valued weights (total below 2^53) every partial sum is
/// exact, so a draw picks exactly the index the sequential rule picks:
/// subtract the weights in order from u * total and stop at the first one
/// the remainder falls below.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights);

  std::size_t Draw(Rng& rng) const noexcept;

 private:
  std::vector<double> prefix_;  // prefix_[i] = sum of weights[0..i]
};

}  // namespace m3
