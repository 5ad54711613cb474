#include "spice/source_spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dot::spice {

SourceSpec SourceSpec::dc(double value) {
  SourceSpec s;
  s.shape_ = SourceShape::kDc;
  s.dc_ = value;
  return s;
}

SourceSpec SourceSpec::pulse(const PulseParams& p) {
  if (p.rise <= 0.0 || p.fall <= 0.0)
    throw std::invalid_argument("SourceSpec::pulse: edges must be positive");
  SourceSpec s;
  s.shape_ = SourceShape::kPulse;
  s.pulse_ = p;
  return s;
}

double SourceSpec::eval(double t) const {
  t = std::max(t, 0.0);
  switch (shape_) {
    case SourceShape::kDc:
      return dc_;
    case SourceShape::kPulse: {
      const auto& p = pulse_;
      double local = t - p.delay;
      if (local < 0.0) return p.initial;
      if (p.period > 0.0) local = std::fmod(local, p.period);
      if (local < p.rise)
        return p.initial + (p.pulsed - p.initial) * (local / p.rise);
      local -= p.rise;
      if (local < p.width) return p.pulsed;
      local -= p.width;
      if (local < p.fall)
        return p.pulsed + (p.initial - p.pulsed) * (local / p.fall);
      return p.initial;
    }
  }
  return 0.0;
}

void SourceSpec::scale(double factor) {
  dc_ *= factor;
  pulse_.initial *= factor;
  pulse_.pulsed *= factor;
}

}  // namespace dot::spice
