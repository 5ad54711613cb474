#include "spice/montecarlo.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dot::spice {

EnvironmentSample sample_environment(const ProcessSpread& spread,
                                     util::Rng& rng) {
  EnvironmentSample s;
  s.temperature_c = rng.uniform(spread.temp_min_c, spread.temp_max_c);
  s.supply_scale = 1.0 + rng.normal(0.0, spread.supply_sigma_rel);
  s.vt_shift = rng.normal(0.0, spread.vt_sigma_global);
  s.kp_scale = 1.0 + rng.normal(0.0, spread.kp_sigma_rel_global);
  s.res_scale = 1.0 + rng.normal(0.0, spread.res_sigma_rel_global);
  s.cap_scale = 1.0 + rng.normal(0.0, spread.cap_sigma_rel_global);
  // Leakage is log-normal-ish: strictly positive, wide spread.
  s.leak_scale = std::exp(rng.normal(0.0, spread.leak_sigma_rel_global));
  // Keep scales physical.
  s.supply_scale = std::max(s.supply_scale, 0.5);
  s.kp_scale = std::max(s.kp_scale, 0.2);
  s.res_scale = std::max(s.res_scale, 0.2);
  s.cap_scale = std::max(s.cap_scale, 0.2);
  return s;
}

Netlist perturb(const Netlist& nominal, const ProcessSpread& spread,
                const EnvironmentSample& sample,
                const std::vector<std::string>& supply_names, util::Rng& rng) {
  for (const auto& name : supply_names) {
    const Device* device = nominal.find_device(name);
    if (device == nullptr || !std::holds_alternative<VoltageSource>(*device))
      throw util::InvalidInputError("perturb: no source named " + name +
                                    " to scale as a supply");
  }
  Netlist out = nominal;
  const double dtemp = sample.temperature_c - spread.temp_nominal_c;
  const double t_ratio =
      (sample.temperature_c + 273.15) / (spread.temp_nominal_c + 273.15);

  auto is_supply = [&](const std::string& name) {
    return std::find(supply_names.begin(), supply_names.end(), name) !=
           supply_names.end();
  };

  for (auto& device : out.devices()) {
    std::visit(
        [&](auto& d) {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, Resistor>) {
            const double mismatch =
                1.0 + rng.normal(0.0, spread.res_sigma_rel_mismatch);
            const double tc = 1.0 + spread.res_tc * dtemp;
            d.ohms *= sample.res_scale * mismatch * tc;
            d.ohms = std::max(d.ohms, 1e-3);
          } else if constexpr (std::is_same_v<T, Capacitor>) {
            d.farads *= sample.cap_scale;
          } else if constexpr (std::is_same_v<T, Mosfet>) {
            const double vt_mismatch =
                rng.normal(0.0, spread.vt_sigma_mismatch);
            const double kp_mismatch =
                1.0 + rng.normal(0.0, spread.kp_sigma_rel_mismatch);
            d.model.vt0 += sample.vt_shift + vt_mismatch +
                           d.model.tc_vt * dtemp;
            d.model.kp *= sample.kp_scale * kp_mismatch *
                          std::pow(t_ratio, d.model.mobility_exp);
            // Subthreshold leakage grows strongly with temperature; the
            // doubling-per-10K rule of thumb plus the process spread.
            d.model.i_leak0 *=
                sample.leak_scale * std::exp2(dtemp / 10.0);
          } else if constexpr (std::is_same_v<T, VoltageSource>) {
            if (is_supply(d.name)) d.spec.scale(sample.supply_scale);
          }
        },
        device);
  }
  return out;
}

}  // namespace dot::spice
