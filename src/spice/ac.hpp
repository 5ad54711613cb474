// Small-signal AC analysis: linearizes every nonlinear device around the
// DC operating point and solves the complex system (G + jwC) x = b per
// frequency. Supports one AC excitation source at a time (unit
// magnitude), which is what transfer-function fault signatures need.
//
// The paper's repertoire of "simple DC, Transient and AC measurements"
// (its reference [6]) maps onto dc_operating_point, transient and this.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"

namespace dot::spice {

struct AcOptions {
  /// Name of the independent V source carrying the 1 V AC excitation.
  std::string source;
  /// Frequency points [Hz].
  std::vector<double> frequencies;
  /// DC options used for the operating point.
  DcOptions dc;
  /// Linear-solver selection (shared semantics with DC/transient). On
  /// the sparse path the symbolic analysis of G + jwC is reused across
  /// all frequency points.
  SolverOptions solver;
};

/// Creates log-spaced frequency points, decades inclusive.
std::vector<double> log_frequencies(double f_start, double f_stop,
                                    int points_per_decade);

class AcResult {
 public:
  AcResult(MnaMap map, std::vector<std::string> node_names,
           std::vector<double> frequencies);

  void append(std::vector<std::complex<double>> solution);

  std::size_t points() const { return frequencies_.size(); }
  double frequency(std::size_t i) const { return frequencies_[i]; }

  /// Complex node voltage phasor at frequency point i.
  std::complex<double> voltage(std::size_t i, const std::string& node) const;
  /// |V(node)| in dB (20*log10).
  double magnitude_db(std::size_t i, const std::string& node) const;
  /// Phase in degrees.
  double phase_deg(std::size_t i, const std::string& node) const;

 private:
  MnaMap map_;
  std::vector<std::string> node_names_;
  std::vector<double> frequencies_;
  std::vector<std::vector<std::complex<double>>> solutions_;
};

/// Runs DC then AC. Throws util::InvalidInputError when the named source
/// does not exist and util::ConvergenceError when the operating point or
/// a frequency point fails.
AcResult ac_analysis(const Netlist& netlist, const AcOptions& options);

}  // namespace dot::spice
