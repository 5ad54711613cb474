// Time-dependent stimulus descriptions for independent sources.
//
// The case-study tests need DC levels, clock pulses (three comparator
// phases), triangular ramps (missing-code test) and piecewise-linear
// stimuli, so those are the supported shapes.
#pragma once

#include <vector>

namespace dot::spice {

enum class SourceShape {
  kDc,        ///< Constant value.
  kPulse,     ///< Periodic trapezoidal pulse (SPICE PULSE semantics).
  kSine,      ///< offset + amplitude * sin(2*pi*freq*(t - delay)).
  kTriangle,  ///< Periodic symmetric triangle between low and high.
  kPwl,       ///< Piecewise linear; holds last value after final point.
};

struct PulseParams {
  double initial = 0.0;   ///< Value before the first edge.
  double pulsed = 0.0;    ///< Value during the pulse.
  double delay = 0.0;     ///< Time of the first rising edge start.
  double rise = 1e-9;     ///< Rise time.
  double fall = 1e-9;     ///< Fall time.
  double width = 0.0;     ///< Time at pulsed value.
  double period = 0.0;    ///< Repetition period (0 = single pulse).
};

struct SineParams {
  double offset = 0.0;
  double amplitude = 0.0;
  double freq_hz = 0.0;
  double delay = 0.0;
};

struct TriangleParams {
  double low = 0.0;
  double high = 0.0;
  double period = 0.0;  ///< Full low->high->low period.
  double delay = 0.0;   ///< Waveform holds `low` before the delay.
};

struct PwlPoint {
  double time = 0.0;
  double value = 0.0;
};

/// Value-semantic description of a source waveform; eval() is pure.
class SourceSpec {
 public:
  SourceSpec() : shape_(SourceShape::kDc), dc_(0.0) {}

  static SourceSpec dc(double value);
  static SourceSpec pulse(const PulseParams& p);
  static SourceSpec sine(const SineParams& p);
  static SourceSpec triangle(const TriangleParams& p);
  static SourceSpec pwl(std::vector<PwlPoint> points);

  SourceShape shape() const { return shape_; }

  /// Instantaneous value at time t (t < 0 treated as t = 0).
  double eval(double t) const;

  /// Value used for the DC operating point (t = 0).
  double dc_value() const { return eval(0.0); }

  /// Uniformly scales the waveform (used by source-stepping homotopy
  /// and supply-spread Monte Carlo).
  void scale(double factor);

 private:
  SourceShape shape_;
  double dc_ = 0.0;
  PulseParams pulse_{};
  SineParams sine_{};
  TriangleParams triangle_{};
  std::vector<PwlPoint> pwl_;
};

}  // namespace dot::spice
