// Streaming statistics used for the fault-free "good signature" envelope
// (the paper detects a fault when a measurement falls outside the 3-sigma
// spread of the fault-free circuit over process / supply / temperature).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace dot::util {

/// Welford one-pass mean / variance with min / max tracking.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Acceptance band for one scalar measurement, usually mean +/- k*sigma.
struct Band {
  double lo = 0.0;
  double hi = 0.0;

  bool contains(double x) const { return x >= lo && x <= hi; }
  double width() const { return hi - lo; }
};

/// Multi-dimensional good-signature space: one band per named measurement.
/// A response is "inside" only if every component is inside its band --
/// a faulty circuit must leave the space in at least one dimension to be
/// recognized (paper, section 2).
class SignatureSpace {
 public:
  void add_dimension(std::string name, Band band);

  std::size_t size() const { return names_.size(); }
  const std::string& name(std::size_t i) const { return names_[i]; }
  const Band& band(std::size_t i) const { return bands_[i]; }

  bool inside(const std::vector<double>& response) const;

  /// Indices of dimensions where the response escapes its band.
  std::vector<std::size_t> violations(const std::vector<double>& response) const;

 private:
  std::vector<std::string> names_;
  std::vector<Band> bands_;
};

}  // namespace dot::util
