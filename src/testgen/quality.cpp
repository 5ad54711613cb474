#include "testgen/quality.hpp"

#include <cmath>

#include "util/error.hpp"

namespace dot::testgen {

double poisson_yield(const ProcessQuality& process) {
  if (process.defect_density_per_cm2 < 0.0 || process.die_area_cm2 <= 0.0)
    throw util::InvalidInputError("poisson_yield: bad process parameters");
  return std::exp(-process.defect_density_per_cm2 * process.die_area_cm2);
}

double clustered_yield(const ProcessQuality& process, double alpha) {
  if (alpha <= 0.0)
    throw util::InvalidInputError("clustered_yield: alpha must be > 0");
  if (process.defect_density_per_cm2 < 0.0 || process.die_area_cm2 <= 0.0)
    throw util::InvalidInputError("clustered_yield: bad process parameters");
  const double lambda =
      process.defect_density_per_cm2 * process.die_area_cm2;
  return std::pow(1.0 + lambda / alpha, -alpha);
}

double defect_level(double yield, double fault_coverage) {
  if (yield <= 0.0 || yield > 1.0)
    throw util::InvalidInputError("defect_level: yield must be in (0, 1]");
  if (fault_coverage < 0.0 || fault_coverage > 1.0)
    throw util::InvalidInputError(
        "defect_level: coverage must be in [0, 1]");
  return 1.0 - std::pow(yield, 1.0 - fault_coverage);
}

}  // namespace dot::testgen
