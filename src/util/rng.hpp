// Deterministic pseudo-random number generation for the simulator.
//
// Everything in secbus is reproducible: a simulation seeded with the same
// 64-bit seed produces bit-identical traces. We use xoshiro256** (public
// domain, Blackman & Vigna) seeded through SplitMix64, rather than
// std::mt19937, because its state is small, it is fast, and its output is
// stable across standard library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace secbus::util {

// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

// xoshiro256** 1.0 generator with convenience distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  // Seeds the four state words via SplitMix64 so that any seed (including 0)
  // yields a valid, well-mixed state.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  // Raw 64 bits of output.
  [[nodiscard]] std::uint64_t next() noexcept;

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }
  result_type operator()() noexcept { return next(); }

  // Uniform integer in [0, bound) using Lemire's multiply-shift rejection
  // method (unbiased). bound must be nonzero.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept;

  // Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  // Bernoulli trial with probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept;

  // Fills a byte span with random data (used for payloads and keys).
  void fill(std::span<std::uint8_t> out) noexcept;

  // Picks an index in [0, weights.size()) proportionally to weights
  // (negative weights count as zero); `total` must be weight_total(weights),
  // which a caller with fixed weights computes once. Zero-total weights
  // fall back to uniform choice.
  [[nodiscard]] std::size_t weighted_pick(std::span<const double> weights,
                                          double total) noexcept;
  // Left-to-right sum of the weights, negatives counted as zero.
  [[nodiscard]] static double weight_total(std::span<const double> weights) noexcept;

  // Long-jump: advances the state by 2^192 steps, giving an independent
  // stream; used to derive per-component generators from one master seed.
  void long_jump() noexcept;

  // Derives the n-th independent substream from this generator's current
  // state without perturbing it.
  [[nodiscard]] Xoshiro256 substream(unsigned n) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace secbus::util
