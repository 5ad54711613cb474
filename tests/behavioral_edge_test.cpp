// Edge cases of the behavioral converter and the missing-code test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "flashadc/behavioral.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dot::flashadc {
namespace {

TEST(BehavioralEdge, ErraticComparatorFlipsNearThreshold) {
  FlashAdcModel adc;
  adc.set_comparator(100, {ComparatorMode::kErratic, 2.0 * lsb()});
  const double threshold = kVrefLo + 101 * lsb();
  const auto near = adc.thermometer(threshold + 0.5 * lsb());
  EXPECT_FALSE(near[100]);  // inverted inside the erratic band
  const auto far = adc.thermometer(threshold + 5.0 * lsb());
  EXPECT_TRUE(far[100]);    // normal outside it
}

TEST(BehavioralEdge, RowStuckActiveCorruptsCodes) {
  FlashAdcModel adc;
  adc.set_row_stuck(200, true);
  // Any conversion now ORs in code 200's bits.
  const int code = adc.convert(kVrefLo + 10.5 * lsb());
  EXPECT_EQ(code, 10 | 200);
  EXPECT_TRUE(has_missing_code(adc));
}

TEST(BehavioralEdge, IndexValidation) {
  FlashAdcModel adc;
  EXPECT_THROW(adc.set_comparator(-1, {}), util::InvalidInputError);
  EXPECT_THROW(adc.set_comparator(256, {}), util::InvalidInputError);
  EXPECT_THROW(adc.set_row_stuck(257, true), util::InvalidInputError);
  EXPECT_THROW(FlashAdcModel(std::vector<double>(10, 1.0)),
               util::InvalidInputError);
}

TEST(BehavioralEdge, MonotoneCodesOnFaultFreeRamp) {
  const FlashAdcModel adc;
  int previous = -1;
  for (double v = kVrefLo - 0.02; v <= kVrefHi + 0.02; v += lsb() / 3.0) {
    const int code = adc.convert(v);
    EXPECT_GE(code, previous);
    previous = code;
  }
  EXPECT_EQ(previous, 255);
}

TEST(BehavioralEdge, CustomTapsShiftThresholds) {
  std::vector<double> taps(256);
  for (int i = 0; i < 256; ++i)
    taps[static_cast<std::size_t>(i)] =
        kVrefLo + (i + 1) * lsb() + 0.5 * lsb();  // global half-LSB shift
  const FlashAdcModel adc(std::move(taps));
  // A uniform shift does not create missing codes.
  EXPECT_FALSE(has_missing_code(adc));
  EXPECT_EQ(adc.convert(kVrefLo + 10.2 * lsb()), 9);
}

TEST(BehavioralEdge, SampleCountChangesSensitivity) {
  FlashAdcModel adc;
  adc.set_comparator(37, {ComparatorMode::kOffset, 1.5 * lsb()});
  MissingCodeTestConfig few;
  few.samples = 64;  // too coarse: false alarms anyway
  MissingCodeTestConfig many;
  many.samples = 4000;
  EXPECT_TRUE(has_missing_code(adc, many));
}


/// A converter configuration the test knows in full, so the reference
/// below needs nothing from FlashAdcModel.
struct Converter {
  std::vector<double> taps;
  std::map<int, ComparatorBehavior> behaviors;
  std::map<int, bool> stuck_rows;
};

/// Reference conversion: every comparator decided one by one, then the
/// 257 edge rows of the wired-OR decoder walked one by one.
int reference_convert(const Converter& conv, double vin) {
  std::vector<bool> c(static_cast<std::size_t>(kLevels));
  for (int i = 0; i < kLevels; ++i) {
    const double tap = conv.taps[static_cast<std::size_t>(i)];
    bool high = vin > tap;
    if (const auto it = conv.behaviors.find(i); it != conv.behaviors.end()) {
      switch (it->second.mode) {
        case ComparatorMode::kNormal:
          break;
        case ComparatorMode::kStuckHigh:
          high = true;
          break;
        case ComparatorMode::kStuckLow:
          high = false;
          break;
        case ComparatorMode::kOffset:
          high = vin > tap + it->second.offset;
          break;
        case ComparatorMode::kErratic:
          if (std::fabs(vin - tap) < it->second.offset) high = !high;
          break;
      }
    }
    c[static_cast<std::size_t>(i)] = high;
  }
  int code = 0;
  for (int k = 0; k <= kLevels; ++k) {
    const bool below = k == 0 || c[static_cast<std::size_t>(k - 1)];
    const bool above = k < kLevels && c[static_cast<std::size_t>(k)];
    bool active = below && !above;
    if (const auto it = conv.stuck_rows.find(k); it != conv.stuck_rows.end())
      active = it->second;
    if (active) code |= std::min(k, kLevels - 1);
  }
  return code;
}

TEST(BehavioralEdge, WordParallelConvertMatchesReference) {
  util::Rng rng(2024);
  constexpr ComparatorMode kModes[] = {
      ComparatorMode::kNormal, ComparatorMode::kStuckHigh,
      ComparatorMode::kStuckLow, ComparatorMode::kOffset,
      ComparatorMode::kErratic};
  for (int trial = 0; trial < 60; ++trial) {
    Converter conv;
    const bool perturbed = trial % 2 == 1;
    for (int i = 0; i < kLevels; ++i) {
      double tap = kVrefLo + (i + 1) * lsb();
      if (perturbed) {
        // Several LSB of noise reorders taps; some repeat a neighbour.
        tap += rng.normal(0.0, 2.0 * lsb());
        if (i > 0 && rng.chance(0.05)) tap = conv.taps.back();
      }
      conv.taps.push_back(tap);
    }
    FlashAdcModel adc(conv.taps);
    const int faulty = static_cast<int>(rng.below(12));
    for (int f = 0; f < faulty; ++f) {
      const int index = static_cast<int>(rng.below(kLevels));
      const ComparatorBehavior behavior{kModes[rng.below(5)],
                                        rng.uniform(-3.0, 3.0) * lsb()};
      conv.behaviors[index] = behavior;  // later settings win, kNormal too
      adc.set_comparator(index, behavior);
    }
    std::vector<int> rows = {0, 255, 256};
    for (int r = static_cast<int>(rng.below(4)); r > 0; --r)
      rows.push_back(static_cast<int>(rng.below(kLevels + 1)));
    for (int row : rows) {
      if (rng.chance(0.5)) continue;
      const bool active = rng.chance(0.5);
      conv.stuck_rows[row] = active;
      adc.set_row_stuck(row, active);
    }
    // A row set again takes its last state.
    const int again = rows[rng.below(rows.size())];
    conv.stuck_rows[again] = !conv.stuck_rows[again];
    adc.set_row_stuck(again, conv.stuck_rows[again]);

    std::vector<double> inputs;
    for (int s = 0; s <= 700; ++s)
      inputs.push_back(kVrefLo - 0.05 + s * (kVrefHi - kVrefLo + 0.1) / 700);
    for (int i = 0; i < kLevels; i += 7)
      inputs.push_back(conv.taps[static_cast<std::size_t>(i)]);  // ties
    for (double vin : inputs)
      ASSERT_EQ(adc.convert(vin), reference_convert(conv, vin))
          << "trial " << trial << " vin " << vin;
  }
}

}  // namespace
}  // namespace dot::flashadc
