// Behavioral model of the full 8-bit flash ADC, used for the fault
// signature sensitization/propagation step: a macro-level fault
// signature is inserted into one comparator (or tap vector, or decoder
// row) and the missing-code test decides whether it is visible at the
// circuit edge.
//
// The decoder is an edge detector with a wired-OR ROM, the structure
// real full-flash converters of this era used: row k fires when
// comparator k-1 is high and comparator k is low; all firing rows' codes
// are OR-ed. A thermometer bubble therefore activates two rows and
// corrupts the output code -- which is why comparator offsets beyond
// one LSB produce missing codes (paper: the "Offset (> 8 mV)" voltage
// signature is missing-code detectable).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flashadc/tech.hpp"

namespace dot::flashadc {

enum class ComparatorMode {
  kNormal,
  kStuckHigh,
  kStuckLow,
  kOffset,   ///< Threshold shifted by `offset` volts.
  kErratic,  ///< Decision inverted within `offset` volts of threshold.
};

struct ComparatorBehavior {
  ComparatorMode mode = ComparatorMode::kNormal;
  double offset = 0.0;
};

class FlashAdcModel {
 public:
  /// Ideal converter: uniform taps over [kVrefLo, kVrefHi].
  FlashAdcModel();
  /// Converter with explicit tap (threshold) voltages, size 256.
  explicit FlashAdcModel(std::vector<double> taps);

  void set_comparator(int index, ComparatorBehavior behavior);
  /// Forces decoder row `row` stuck active/inactive.
  void set_row_stuck(int row, bool active);

  /// Comparator outputs for one input sample.
  std::vector<bool> thermometer(double vin) const;
  /// One conversion through the edge-detect + wired-OR decoder,
  /// word-parallel: the thermometer and the decoder rows are bit masks.
  int convert(double vin) const;

 private:
  using Bits = std::array<std::uint64_t, 4>;  // bit i of word i / 64

  /// Builds sorted_taps_ and below_ from taps_.
  void index_taps();
  /// Output of comparator i, its behavior applied.
  bool decision(std::size_t i, double vin) const;

  std::vector<double> taps_;
  /// The non-NaN taps in ascending order, and below_[r]: the comparators
  /// owning the r lowest of them. A normal comparator is high exactly
  /// when its tap is below vin, so the normal thermometer for vin is
  /// below_[number of sorted taps < vin].
  std::vector<double> sorted_taps_;
  std::vector<Bits> below_;
  std::vector<ComparatorBehavior> behaviors_;
  /// Comparators whose mode is not kNormal, ascending.
  std::vector<std::size_t> abnormal_;
  /// Decoder rows 0..256 stuck inactive / active, bit k of word k / 64.
  std::array<std::uint64_t, 5> row_off_{};
  std::array<std::uint64_t, 5> row_on_{};
};

struct MissingCodeTestConfig {
  int samples = 1000;
  /// Triangle sweep slightly overdrives the reference range so the top
  /// and bottom codes are reachable.
  double v_lo = kVrefLo - 0.02;
  double v_hi = kVrefHi + 0.02;
};

/// Which of the 256 codes appeared during the sampled triangle sweep.
std::vector<bool> codes_seen(const FlashAdcModel& adc,
                             const MissingCodeTestConfig& config = {});

/// True when at least one code never appears (the fault is detected).
bool has_missing_code(const FlashAdcModel& adc,
                      const MissingCodeTestConfig& config = {});

/// Test time: samples are taken at full conversion speed.
double missing_code_test_time(const MissingCodeTestConfig& config = {});

}  // namespace dot::flashadc
