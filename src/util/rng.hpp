// Deterministic, splittable random number generation.
//
// The simulation engine runs many replications in parallel; each replication
// derives an independent stream from a master seed via SplitMix64 so results
// are reproducible regardless of thread scheduling.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ncb {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used to seed Xoshiro streams
/// and to derive per-replication seeds from a master seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// Xoshiro256++ PRNG (Blackman & Vigna). Fast, 256-bit state, suitable for
/// Monte-Carlo simulation. Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Inline, like operator():
  /// argmax tie-breaking draws one per tied score, up to K per select.
  std::uint64_t uniform_int(std::uint64_t n) noexcept {
    // Lemire's multiply-shift with rejection to remove modulo bias.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (~n + 1) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Standard normal via Marsaglia polar method.
  double gaussian() noexcept;

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept;

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape) noexcept;

  /// Beta(a, b) via two gamma draws; a, b > 0.
  double beta(double a, double b) noexcept;

  /// Equivalent of the long-jump function: advances the stream by 2^192
  /// draws, producing a non-overlapping substream.
  void long_jump() noexcept;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Derives `count` independent 64-bit seeds from `master_seed`.
[[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::uint64_t master_seed,
                                                      std::size_t count);

/// Counter-based access into the same stream: O(1) equivalent of
/// `derive_seeds(master_seed, index + 1)[index]`. Lets a shard seed its
/// replications without generating the whole seed prefix, so sharded and
/// sequential drivers draw bit-identical per-replication streams.
[[nodiscard]] std::uint64_t derive_seed_at(std::uint64_t master_seed,
                                           std::uint64_t index) noexcept;

/// Fisher-Yates shuffle of a vector using the given generator.
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_int(i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace ncb
