#include "flashadc/behavioral.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace dot::flashadc {

FlashAdcModel::FlashAdcModel() {
  taps_.resize(kLevels);
  for (int i = 0; i < kLevels; ++i)
    taps_[static_cast<std::size_t>(i)] =
        kVrefLo + (i + 1) * (kVrefHi - kVrefLo) / kLevels;
  behaviors_.resize(kLevels);
  index_taps();
}

FlashAdcModel::FlashAdcModel(std::vector<double> taps)
    : taps_(std::move(taps)) {
  if (taps_.size() != static_cast<std::size_t>(kLevels))
    throw util::InvalidInputError("FlashAdcModel: need 256 tap voltages");
  behaviors_.resize(kLevels);
  index_taps();
}

void FlashAdcModel::index_taps() {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < taps_.size(); ++i)
    if (!std::isnan(taps_[i])) order.push_back(i);  // never below vin
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return taps_[a] < taps_[b];
                   });
  sorted_taps_.clear();
  below_.assign(order.size() + 1, Bits{});
  for (std::size_t r = 0; r < order.size(); ++r) {
    sorted_taps_.push_back(taps_[order[r]]);
    below_[r + 1] = below_[r];
    below_[r + 1][order[r] / 64] |= std::uint64_t{1} << (order[r] % 64);
  }
}

void FlashAdcModel::set_comparator(int index, ComparatorBehavior behavior) {
  if (index < 0 || index >= kLevels)
    throw util::InvalidInputError("set_comparator: index out of range");
  const auto iu = static_cast<std::size_t>(index);
  behaviors_[iu] = behavior;
  const auto it = std::lower_bound(abnormal_.begin(), abnormal_.end(), iu);
  const bool listed = it != abnormal_.end() && *it == iu;
  if (behavior.mode == ComparatorMode::kNormal && listed)
    abnormal_.erase(it);
  else if (behavior.mode != ComparatorMode::kNormal && !listed)
    abnormal_.insert(it, iu);
}

void FlashAdcModel::set_row_stuck(int row, bool active) {
  if (row < 0 || row > kLevels)
    throw util::InvalidInputError("set_row_stuck: row out of range");
  const auto word = static_cast<std::size_t>(row) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (row % 64);
  (active ? row_on_ : row_off_)[word] |= bit;
  (active ? row_off_ : row_on_)[word] &= ~bit;
}

bool FlashAdcModel::decision(std::size_t i, double vin) const {
  const double threshold = taps_[i];
  const ComparatorBehavior& behavior = behaviors_[i];
  switch (behavior.mode) {
    case ComparatorMode::kNormal:
      break;
    case ComparatorMode::kStuckHigh:
      return true;
    case ComparatorMode::kStuckLow:
      return false;
    case ComparatorMode::kOffset:
      return vin > threshold + behavior.offset;
    case ComparatorMode::kErratic:
      if (std::fabs(vin - threshold) < behavior.offset)
        return !(vin > threshold);
      break;
  }
  return vin > threshold;
}

std::vector<bool> FlashAdcModel::thermometer(double vin) const {
  std::vector<bool> c(static_cast<std::size_t>(kLevels));
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = decision(i, vin);
  return c;
}

int FlashAdcModel::convert(double vin) const {
  // Thermometer as four words (plus word 4, the virtual c[256] = 0):
  // the normal comparators from one binary search over the sorted taps,
  // then the few faulty ones patched.
  const auto below = std::lower_bound(sorted_taps_.begin(),
                                      sorted_taps_.end(), vin) -
                     sorted_taps_.begin();
  const Bits& normal = below_[static_cast<std::size_t>(below)];
  std::array<std::uint64_t, 5> c{normal[0], normal[1], normal[2], normal[3],
                                 0};
  for (std::size_t i : abnormal_) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (decision(i, vin))
      c[i / 64] |= bit;
    else
      c[i / 64] &= ~bit;
  }
  // Edge rows k = 0..256 fire when c[k-1] is high (virtual c[-1] = 1)
  // and c[k] low, i.e. the bits of (c << 1 | 1) & ~c; stuck rows
  // override. Row k encodes min(k, 255), and all active rows wire-OR
  // into the output code.
  int code = 0;
  std::uint64_t carry = 1;
  for (std::size_t w = 0; w < c.size(); ++w) {
    const std::uint64_t high_below = c[w] << 1 | carry;
    carry = c[w] >> 63;
    std::uint64_t active =
        (high_below & ~c[w] & ~row_off_[w]) | row_on_[w];
    for (; active != 0; active &= active - 1) {
      const int k = static_cast<int>(64 * w) + std::countr_zero(active);
      code |= std::min(k, kLevels - 1);
    }
  }
  return code;
}

namespace {

/// Bit k of word k / 64 set when code k appeared in the sweep.
std::array<std::uint64_t, 4> seen_codes(const FlashAdcModel& adc,
                                        const MissingCodeTestConfig& config) {
  std::array<std::uint64_t, 4> seen{};
  for (int s = 0; s < config.samples; ++s) {
    // Triangle: up in the first half, down in the second.
    const double phase = static_cast<double>(s) / config.samples;
    const double frac = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
    const double vin = config.v_lo + frac * (config.v_hi - config.v_lo);
    const auto code = static_cast<unsigned>(adc.convert(vin));
    seen[code / 64] |= std::uint64_t{1} << (code % 64);
  }
  return seen;
}

}  // namespace

std::vector<bool> codes_seen(const FlashAdcModel& adc,
                             const MissingCodeTestConfig& config) {
  const auto seen = seen_codes(adc, config);
  std::vector<bool> out(static_cast<std::size_t>(kLevels));
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = (seen[k / 64] >> (k % 64)) & 1;
  return out;
}

bool has_missing_code(const FlashAdcModel& adc,
                      const MissingCodeTestConfig& config) {
  const auto seen = seen_codes(adc, config);
  return std::any_of(seen.begin(), seen.end(),
                     [](std::uint64_t w) { return w != ~std::uint64_t{0}; });
}

double missing_code_test_time(const MissingCodeTestConfig& config) {
  return config.samples * kCyclePeriod;
}

}  // namespace dot::flashadc
