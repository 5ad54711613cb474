#include "util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dot::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  assert(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) {
  return mean + sigma * normal();
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::weighted(std::span<const double> weights) {
  return WeightedPick(weights)(*this);
}

WeightedPick::WeightedPick(std::span<const double> weights)
    : weights_(weights) {
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Rng::weighted: negative weight");
    total_ += w;
  }
  if (total_ <= 0.0)
    throw std::invalid_argument("Rng::weighted: no positive weight");
}

std::size_t WeightedPick::operator()(Rng& rng) const {
  double pick = rng.uniform() * total_;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    pick -= weights_[i];
    if (pick < 0.0) return i;
  }
  return weights_.size() - 1;  // Guard against floating-point round-off.
}

double Rng::power_law(double x_min, double x_max, double exponent) {
  return PowerLaw(x_min, x_max, exponent)(*this);
}

PowerLaw::PowerLaw(double x_min, double x_max, double exponent)
    : x_min_(x_min), exponent_(exponent) {
  if (!(x_min > 0.0) || !(x_max >= x_min))
    throw std::invalid_argument("Rng::power_law: bad range");
  if (exponent == 1.0) {
    // Density ~ 1/x: log-uniform.
    a_ = std::log(x_max / x_min);
    b_minus_a_ = 0.0;
    return;
  }
  const double one_minus = 1.0 - exponent;
  a_ = std::pow(x_min, one_minus);
  b_minus_a_ = std::pow(x_max, one_minus) - a_;
}

double PowerLaw::operator()(Rng& rng) const { return at(rng.uniform()); }

double PowerLaw::at(double u) const {
  if (exponent_ == 1.0) return x_min_ * std::exp(u * a_);
  const double one_minus = 1.0 - exponent_;
  return std::pow(a_ + u * b_minus_a_, 1.0 / one_minus);
}

double PowerLaw::variate_below(double x) const {
  // Aim the inverse CDF a hair below x, then check the aim. The steps
  // of at() before its pow (or exp) are rounded products and sums with
  // fixed operands, so they are monotone in u, and the exact power is
  // monotone in its base the way at() is in u; with pow and exp within
  // one ulp of exact, at(u) exceeds at(v) by at most a few ulps for
  // every u < v. A checked at(v) below x * (1 - 1e-12) therefore bounds
  // every sample drawn from a variate below v.
  const double aim = x * (1.0 - 1e-9);
  if (!(aim > x_min_)) return 0.0;
  const double v = std::min(
      exponent_ == 1.0 ? std::log(aim / x_min_) / a_
                       : (std::pow(aim, 1.0 - exponent_) - a_) / b_minus_a_,
      1.0);
  return at(v) < x * (1.0 - 1e-12) ? v : 0.0;
}

Rng Rng::split(std::uint64_t stream_id) const {
  // Fold the full master state and the stream id through SplitMix64.
  // Reading (not advancing) the state keeps split() const and makes
  // child streams a pure function of (master seed, stream_id).
  std::uint64_t acc = stream_id;
  for (std::uint64_t word : state_) {
    acc ^= splitmix64(word);  // splitmix64 advances its local copy only
  }
  std::uint64_t mix = acc + 0x9e3779b97f4a7c15ull * (stream_id + 1);
  return Rng(splitmix64(mix));
}

}  // namespace dot::util
