// Spot-defect statistics: relative occurrence rates per defect type and
// the defect size distribution.
//
// The defaults are calibrated so that, as in the paper's fab, "the
// majority of the spot defects in the fabrication process consist of
// extra material defects in the metallization steps" -- which is why
// more than 95% of the extracted faults are shorts.
#pragma once

#include <array>

#include "util/rng.hpp"

namespace dot::defect {

enum class DefectType {
  kExtraMetal1,
  kExtraMetal2,
  kExtraPoly,
  kExtraActive,
  kMissingMetal1,
  kMissingMetal2,
  kMissingPoly,
  kMissingActive,
  kExtraContact,   ///< Spurious contact cut (metal1 to poly/active).
  kExtraVia,       ///< Spurious via cut (metal1 to metal2).
  kMissingContact,
  kMissingVia,
  kGateOxidePinhole,
  kThickOxidePinhole,
  kJunctionPinhole,
};
inline constexpr int kDefectTypeCount = 15;

/// Spatial clustering of spot defects. Real fab defects do not arrive
/// as a homogeneous Poisson process: a scratch, splash or particle
/// shower deposits several spots close together, giving fault counts a
/// negative-binomial (over-dispersed) distribution across dies.
struct ClusterParams {
  /// Probability that a sampled defect seeds a cluster of extra spots.
  double cluster_fraction = 0.0;
  /// Mean number of EXTRA spots per cluster (geometric distribution).
  double mean_extra = 4.0;
  /// Gaussian spread of cluster members around the seed [um].
  double radius = 10.0;

  bool enabled() const { return cluster_fraction > 0.0; }
};

struct DefectStatistics {
  /// Relative density per defect type (weights, need not sum to 1).
  std::array<double, kDefectTypeCount> weights;

  /// Spot size distribution ~ 1/x^exponent on [size_min, size_max] (um).
  double size_min = 0.5;
  double size_max = 20.0;
  double size_exponent = 3.0;

  /// Spatial clustering (disabled by default: pure Poisson sprinkling).
  ClusterParams clustering;

  DefectStatistics();

  double weight(DefectType type) const {
    return weights[static_cast<std::size_t>(type)];
  }
  double& weight(DefectType type) {
    return weights[static_cast<std::size_t>(type)];
  }

  /// Draws a defect type according to the weights.
  DefectType sample_type(util::Rng& rng) const;
  /// Draws a spot diameter.
  double sample_size(util::Rng& rng) const;
};

}  // namespace dot::defect
