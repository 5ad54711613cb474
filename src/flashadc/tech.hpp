// Shared technology and system constants of the case-study ADC: a 5 V
// single-poly double-metal CMOS process (early-1990s vintage) and the
// 8-bit video-rate converter built in it.
#pragma once

#include "spice/devices.hpp"

namespace dot::flashadc {

/// Supplies.
inline constexpr double kVdda = 5.0;  ///< Analog supply.
inline constexpr double kVddd = 5.0;  ///< Digital supply (clock gen, decoder).

/// Reference range: 2 V full scale around mid-supply.
inline constexpr double kVrefLo = 1.5;
inline constexpr double kVrefHi = 3.5;
inline constexpr int kBits = 8;
inline constexpr int kLevels = 1 << kBits;  // 256
inline double lsb() { return (kVrefHi - kVrefLo) / kLevels; }  // ~7.8 mV

/// Clock timing: one conversion cycle (video rate ~10 MHz).
inline constexpr double kCyclePeriod = 100e-9;
/// Phase windows within a cycle [start, end) in seconds.
inline constexpr double kSampleStart = 0.0, kSampleEnd = 40e-9;
inline constexpr double kAmpStart = 45e-9, kAmpEnd = 70e-9;
inline constexpr double kLatchStart = 75e-9, kLatchEnd = 95e-9;
/// Quiescent measurement instants (mid-phase, second cycle).
inline constexpr double kMeasSample = kCyclePeriod + 20e-9;
inline constexpr double kMeasAmp = kCyclePeriod + 57e-9;
inline constexpr double kMeasLatch = kCyclePeriod + 85e-9;
/// The last instant any extractor reads: transients stop one step past
/// it, and extractors reject waveforms that end before it.
inline constexpr double kMeasEnd = kMeasLatch;

/// Clock edges.
inline constexpr double kClockEdge = 2e-9;

spice::MosModel nmos_model();
spice::MosModel pmos_model();

/// Output resistance of the clock generator's final buffers as seen by
/// the comparator clock pins.
inline constexpr double kClockBufferOhms = 150.0;
/// Output resistance of the bias generator lines (1/gm of the diodes).
inline constexpr double kBiasOutputOhms = 10e3;
/// Nominal bias line voltages -- deliberately only marginally different,
/// the property the paper's second DfT measure is about.
inline constexpr double kVbn = 0.95;
inline constexpr double kVbc = 1.05;

}  // namespace dot::flashadc
