// Process / supply / temperature perturbation of a nominal netlist.
//
// The paper defines fault detection relative to the fault-free circuit's
// spread "under the influence of environmental conditions like process,
// supply voltage and temperature" -- the good signature is a
// multi-dimensional space compiled over exactly these variations.
#pragma once

#include <string>
#include <vector>

#include "spice/netlist.hpp"
#include "util/rng.hpp"

namespace dot::spice {

struct ProcessSpread {
  // Global (per-die) variations, shared by all devices of a sample.
  double vt_sigma_global = 0.030;      ///< Threshold shift [V].
  double kp_sigma_rel_global = 0.05;   ///< Relative transconductance.
  double res_sigma_rel_global = 0.10;  ///< Relative sheet resistance.
  double cap_sigma_rel_global = 0.05;  ///< Relative capacitance.
  double leak_sigma_rel_global = 0.5;  ///< Relative subthreshold leakage.

  // Local (per-device) mismatch on top of the global shift.
  double vt_sigma_mismatch = 0.004;
  double kp_sigma_rel_mismatch = 0.01;
  double res_sigma_rel_mismatch = 0.005;

  // Environment.
  double supply_sigma_rel = 0.02;  ///< Relative supply-voltage spread.
  double temp_min_c = 0.0;
  double temp_max_c = 70.0;
  double temp_nominal_c = 27.0;

  // Temperature coefficient of resistors (poly/diffusion) [1/K].
  double res_tc = 1.0e-3;
};

/// One sampled environment; recorded alongside Monte-Carlo results so a
/// sample can be reproduced.
struct EnvironmentSample {
  double temperature_c = 27.0;
  double supply_scale = 1.0;
  double vt_shift = 0.0;
  double kp_scale = 1.0;
  double res_scale = 1.0;
  double cap_scale = 1.0;
  double leak_scale = 1.0;
};

/// Draws one global environment sample.
EnvironmentSample sample_environment(const ProcessSpread& spread,
                                     util::Rng& rng);

/// Applies the sample plus per-device mismatch to a copy of `nominal`.
/// Sources whose names appear in `supply_names` are scaled by the
/// supply factor; all other sources are left untouched (they are test
/// stimuli, not supplies). Throws util::InvalidInputError when a listed
/// name is not a voltage source of `nominal`.
Netlist perturb(const Netlist& nominal, const ProcessSpread& spread,
                const EnvironmentSample& sample,
                const std::vector<std::string>& supply_names, util::Rng& rng);

}  // namespace dot::spice
