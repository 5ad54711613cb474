// Time-dependent stimulus descriptions for independent sources.
//
// The case-study benches need DC levels and clock pulses (three
// comparator phases), so those are the supported shapes.
#pragma once

namespace dot::spice {

enum class SourceShape {
  kDc,     ///< Constant value.
  kPulse,  ///< Periodic trapezoidal pulse (SPICE PULSE semantics).
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

/// Value-semantic description of a source waveform; eval() is pure.
class SourceSpec {
 public:
  SourceSpec() : shape_(SourceShape::kDc), dc_(0.0) {}

  static SourceSpec dc(double value);
  static SourceSpec pulse(const PulseParams& p);

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
};

}  // namespace dot::spice
