#include "defect/statistics.hpp"

namespace dot::defect {

DefectStatistics::DefectStatistics() {
  // Metallization extra-material defects dominate (paper section 3.2:
  // "the majority of the spot defects in the fabrication process consist
  // of extra material defects in the metallization steps"); missing
  // material, spurious cuts and pinholes are orders of magnitude rarer,
  // which reproduces Table 1's shape (shorts > 95% of faults, opens a
  // tiny fault fraction yet a rich class population).
  weights = {};
  weight(DefectType::kExtraMetal1) = 40.0;
  weight(DefectType::kExtraMetal2) = 30.0;
  weight(DefectType::kExtraPoly) = 13.0;
  weight(DefectType::kExtraActive) = 7.0;
  weight(DefectType::kMissingMetal1) = 0.2;
  weight(DefectType::kMissingMetal2) = 0.16;
  weight(DefectType::kMissingPoly) = 0.1;
  weight(DefectType::kMissingActive) = 0.06;
  weight(DefectType::kExtraContact) = 0.7;
  weight(DefectType::kExtraVia) = 0.5;
  weight(DefectType::kMissingContact) = 0.08;
  weight(DefectType::kMissingVia) = 0.06;
  weight(DefectType::kGateOxidePinhole) = 1.2;
  weight(DefectType::kThickOxidePinhole) = 0.8;
  weight(DefectType::kJunctionPinhole) = 1.0;
}

DefectType DefectStatistics::sample_type(util::Rng& rng) const {
  return static_cast<DefectType>(rng.weighted(weights));
}

double DefectStatistics::sample_size(util::Rng& rng) const {
  return rng.power_law(size_min, size_max, size_exponent);
}

}  // namespace dot::defect
