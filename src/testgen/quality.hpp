// Shipped-product quality model: converts fault coverage and process
// defect density into yield and defect level (test escapes reaching
// customers) -- the reliability argument of the paper's introduction
// ("limited functional verification does not ensure that all defects
// are detected, causing potential reliability problems").
#pragma once

namespace dot::testgen {

struct ProcessQuality {
  double defect_density_per_cm2 = 1.0;  ///< Faulting defects per cm^2.
  double die_area_cm2 = 0.3;
};

/// Poisson yield: fraction of dies with no faulting defect.
double poisson_yield(const ProcessQuality& process);

/// Negative-binomial yield for spatially clustered defects,
/// Y = (1 + A*D/alpha)^(-alpha); alpha -> inf recovers Poisson. Lower
/// alpha = stronger clustering = HIGHER yield at equal density (defects
/// pile onto fewer dies).
double clustered_yield(const ProcessQuality& process, double alpha);

/// Williams-Brown defect level: fraction of SHIPPED (test-passing)
/// parts that contain an undetected defect, DL = 1 - Y^(1 - FC).
double defect_level(double yield, double fault_coverage);

}  // namespace dot::testgen
