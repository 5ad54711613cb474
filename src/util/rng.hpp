// Deterministic pseudo-random number generation for all Monte-Carlo
// stages (defect sprinkling, process-spread sampling, stimulus jitter).
//
// Every stochastic component of the library takes an explicit seed so
// experiments are exactly reproducible; nothing reads global entropy.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dot::util {

class Rng;

/// Power-law distribution with density ~ 1/x^exponent on [x_min,
/// x_max] (the classic spot-defect size distribution has exponent 3).
/// The constant terms of the inverse CDF are computed once, at
/// construction, so each draw costs one uniform and one pow; the
/// samples are the same doubles Rng::power_law returns.
class PowerLaw {
 public:
  /// Throws std::invalid_argument unless 0 < x_min <= x_max.
  PowerLaw(double x_min, double x_max, double exponent);

  double operator()(Rng& rng) const;

  /// The sample the inverse CDF maps variate `u` in [0, 1) to; it does
  /// not decrease as `u` grows.
  double at(double u) const;

  /// A variate bound below which every sample is smaller than `x`:
  /// at(u) < x for every u < variate_below(x). Conservative: it may be
  /// a little low, never high, and it is 0 when x <= x_min.
  double variate_below(double x) const;

 private:
  double x_min_ = 0.0;
  double exponent_ = 0.0;
  double a_ = 0.0;          // x_min^(1-exponent), or log(x_max/x_min) at 1
  double b_minus_a_ = 0.0;  // x_max^(1-exponent) - a_
};

/// Discrete distribution over the indices of (unnormalized) weights.
/// The weights are checked and summed once, at construction, so each
/// draw costs one uniform and a linear scan; the picks are the ones
/// Rng::weighted returns. Keeps a view of `weights`, which must outlive
/// it.
class WeightedPick {
 public:
  /// Throws std::invalid_argument on a negative weight or when no
  /// weight is positive.
  explicit WeightedPick(std::span<const double> weights);

  std::size_t operator()(Rng& rng) const;

 private:
  std::span<const double> weights_;
  double total_ = 0.0;
};

/// xoshiro256** 1.0 by Blackman & Vigna: small, fast, and high quality.
/// Used instead of std::mt19937 so that streams are bit-identical across
/// standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 so that nearby seeds give uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Standard normal via Box-Muller (cached spare deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Draws an index according to the (unnormalized) weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted(std::span<const double> weights);

  /// Power-law sample with density ~ 1/x^exponent on [x_min, x_max].
  /// The classic spot-defect size distribution uses exponent = 3.
  double power_law(double x_min, double x_max, double exponent);

  /// Counter-based stream derivation: returns the child stream for
  /// `stream_id` WITHOUT advancing this generator. The same (master
  /// state, stream_id) pair always yields the same child, so work item
  /// i can draw from split(i) on any thread and produce bit-identical
  /// results regardless of thread count or execution order.
  Rng split(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace dot::util
