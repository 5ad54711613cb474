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

SourceSpec SourceSpec::sine(const SineParams& p) {
  SourceSpec s;
  s.shape_ = SourceShape::kSine;
  s.sine_ = p;
  return s;
}

SourceSpec SourceSpec::triangle(const TriangleParams& p) {
  if (p.period <= 0.0)
    throw std::invalid_argument("SourceSpec::triangle: period must be > 0");
  SourceSpec s;
  s.shape_ = SourceShape::kTriangle;
  s.triangle_ = p;
  return s;
}

SourceSpec SourceSpec::pwl(std::vector<PwlPoint> points) {
  if (points.empty())
    throw std::invalid_argument("SourceSpec::pwl: need at least one point");
  for (std::size_t i = 1; i < points.size(); ++i)
    if (points[i].time < points[i - 1].time)
      throw std::invalid_argument("SourceSpec::pwl: times must be sorted");
  SourceSpec s;
  s.shape_ = SourceShape::kPwl;
  s.pwl_ = std::move(points);
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
    case SourceShape::kSine: {
      const auto& p = sine_;
      if (t < p.delay) return p.offset;
      return p.offset +
             p.amplitude * std::sin(2.0 * M_PI * p.freq_hz * (t - p.delay));
    }
    case SourceShape::kTriangle: {
      const auto& p = triangle_;
      if (t < p.delay) return p.low;
      const double phase = std::fmod(t - p.delay, p.period) / p.period;
      const double frac = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
      return p.low + (p.high - p.low) * frac;
    }
    case SourceShape::kPwl: {
      const auto& pts = pwl_;
      if (t <= pts.front().time) return pts.front().value;
      if (t >= pts.back().time) return pts.back().value;
      for (std::size_t i = 1; i < pts.size(); ++i) {
        if (t <= pts[i].time) {
          const double span = pts[i].time - pts[i - 1].time;
          if (span <= 0.0) return pts[i].value;
          const double frac = (t - pts[i - 1].time) / span;
          return pts[i - 1].value + frac * (pts[i].value - pts[i - 1].value);
        }
      }
      return pts.back().value;
    }
  }
  return 0.0;
}

void SourceSpec::scale(double factor) {
  dc_ *= factor;
  pulse_.initial *= factor;
  pulse_.pulsed *= factor;
  sine_.offset *= factor;
  sine_.amplitude *= factor;
  triangle_.low *= factor;
  triangle_.high *= factor;
  for (auto& pt : pwl_) pt.value *= factor;
}

}  // namespace dot::spice
