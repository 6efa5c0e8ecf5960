// Deterministic, seedable pseudo-random number generation for simulations.
//
// All stochastic components of fedco draw from Rng so that every experiment
// is exactly reproducible from a single 64-bit seed. The generator is
// xoshiro256** (Blackman & Vigna), seeded through splitmix64 as its authors
// recommend; it is far faster than std::mt19937_64 and has no observable
// statistical defects at simulation scale.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace fedco::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator, so it can be
/// plugged into <random> distributions, but the member helpers below are the
/// preferred (and faster) interface.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDC0DEULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
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
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection to
  /// avoid modulo bias.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (cached spare).
  [[nodiscard]] double normal() noexcept;

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with rate lambda > 0.
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64 — adequate for arrival modelling).
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// Gamma(shape, scale) via Marsaglia–Tsang; shape > 0, scale > 0.
  [[nodiscard]] double gamma(double shape, double scale) noexcept;

  /// Sample from a symmetric Dirichlet(alpha) over k categories.
  [[nodiscard]] std::vector<double> dirichlet(double alpha, std::size_t k) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    if (values.empty()) return;
    for (std::size_t i = values.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(i + 1));
      using std::swap;
      swap(values[i], values[j]);
    }
  }

  /// Derive an independent child generator; used to give each simulated
  /// user/device its own stream so adding a component never perturbs others.
  [[nodiscard]] Rng fork() noexcept {
    return Rng{(*this)() ^ 0xA02BDBF7BB3C0A7ULL};
  }

  /// Equal generators (state and cached normal spare) produce identical
  /// sequences from here on.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace fedco::util
