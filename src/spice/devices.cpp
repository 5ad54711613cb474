#include "spice/devices.hpp"

#include <algorithm>
#include <cmath>

namespace dot::spice {
namespace {

constexpr double kThermalVoltage = 0.02585;  // kT/q at 300 K.
constexpr double kMaxExpArg = 40.0;          // exp() clamp for stability.

double safe_exp(double x) { return std::exp(std::min(x, kMaxExpArg)); }

// Threshold with body effect; clamp the sqrt argument for robustness
// when the bulk is forward biased during Newton iterations. When the
// clamp engages, vt stops varying with vbs, so its derivative must be
// zero there or the Jacobian lies about the model. Written with
// selects (no control flow) so the batched lane loop auto-vectorizes;
// the selected expressions are the ones the branches would compute.
inline void mos_threshold(const double vt0, const double gamma,
                          const double phi, const double sqrt_phi,
                          const double vbs, double& vt, double& dvt_dvbs) {
  const bool phi_clamped = phi - vbs <= 1e-6;
  const double phi_term = phi_clamped ? 1e-6 : phi - vbs;
  vt = vt0 + gamma * (std::sqrt(phi_term) - sqrt_phi);
  dvt_dvbs = phi_clamped ? 0.0 : -gamma * 0.5 / std::sqrt(phi_term);
}

// Normalized (vds >= 0) region evaluation shared by the scalar and
// batched entry points: subthreshold leakage plus triode/saturation
// strong inversion. exp-heavy and branchy, so the batch kernel calls
// it lane by lane.
inline MosOperatingPoint eval_mos_region(const double beta,
                                         const double lambda,
                                         const double n_vt, const double i0,
                                         const double vt,
                                         const double dvt_dvbs,
                                         const double vgs, const double vds) {
  const double vov = vgs - vt;

  // Leakage component: exponential below threshold, saturating to its
  // vov = 0 value above it, so the total current stays continuous
  // through the threshold (no dead zone for fault leakage paths).
  // Above threshold the exponent is 0 and exp(0) = 1 exactly.
  const double expo = vov >= 0.0 ? 1.0 : safe_exp(vov / n_vt);
  const double e_vds = safe_exp(-vds / kThermalVoltage);
  const double sat = 1.0 - e_vds;
  MosOperatingPoint op;
  op.ids = i0 * expo * sat;
  op.gds = i0 * expo * e_vds / kThermalVoltage;
  if (vov <= 0.0) {
    op.gm = op.ids / n_vt;
    op.gmb = -op.gm * dvt_dvbs;
  } else if (vds < vov) {
    // Triode.
    const double lam = 1.0 + lambda * vds;
    op.ids += beta * (vov * vds - 0.5 * vds * vds) * lam;
    op.gm = beta * vds * lam;
    op.gds += beta * ((vov - vds) * lam +
                      (vov * vds - 0.5 * vds * vds) * lambda);
    op.gmb = -op.gm * dvt_dvbs;
  } else {
    // Saturation.
    const double lam = 1.0 + lambda * vds;
    op.ids += 0.5 * beta * vov * vov * lam;
    op.gm = beta * vov * lam;
    op.gds += 0.5 * beta * vov * vov * lambda;
    op.gmb = -op.gm * dvt_dvbs;
  }
  return op;
}

// SoA lane kernels for eval_mos_batch. The __restrict qualifiers live
// on *function parameters* because GCC only exploits restrict there
// (restrict-qualified locals are ignored and the loops stay scalar);
// the qualifiers are justified because DeviceBatch owns each lane as a
// distinct allocation. Bodies are selects only, so with the
// vectorizer flags on this translation unit (see CMakeLists.txt) each
// loop compiles to straight-line SIMD -- CI asserts that against the
// compiler's own report (vec_report_check).

// Pass 1: drain/source normalization to vds >= 0; the selects mirror
// eval_mos's swap block bit for bit.
void batch_normalize(const double* __restrict vgs,
                     const double* __restrict vds,
                     const double* __restrict vbs, double* __restrict nvgs,
                     double* __restrict nvds, double* __restrict nvbs,
                     double* __restrict swapped, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = vgs[i];
    const double d = vds[i];
    const double s = vbs[i];
    const bool sw = d < 0.0;
    nvgs[i] = sw ? g - d : g;
    nvbs[i] = sw ? s - d : s;
    nvds[i] = sw ? -d : d;
    swapped[i] = sw ? 1.0 : 0.0;
  }
}

// Pass 2: threshold/body effect (mos_threshold per lane).
void batch_threshold(const double* __restrict vt0,
                     const double* __restrict gamma,
                     const double* __restrict phi,
                     const double* __restrict sqrt_phi,
                     const double* __restrict nvbs, double* __restrict vt,
                     double* __restrict dvt, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    mos_threshold(vt0[i], gamma[i], phi[i], sqrt_phi[i], nvbs[i], vt[i],
                  dvt[i]);
}

// Pass 4 helpers: swap-back chain rule (see eval_mos's epilogue), one
// loop per output lane -- GCC's if-conversion handles a single
// select-guarded store per loop but gives up on a shared condition
// feeding several stores ("control flow in loop"). gds must update
// first, from the pre-negation gm/gmb values, and every load is
// unconditional so nothing needs speculating.
void batch_swapback_gds(const double* __restrict swapped,
                        double* __restrict gds, const double* __restrict gm,
                        const double* __restrict gmb, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool sw = swapped[i] != 0.0;
    const double gds_p = gds[i];
    const double gm_p = gm[i];
    const double gmb_p = gmb[i];
    gds[i] = sw ? gds_p + gm_p + gmb_p : gds_p;
  }
}

void batch_swapback_negate(const double* __restrict swapped,
                           double* __restrict lane, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = lane[i];
    lane[i] = swapped[i] != 0.0 ? -v : v;
  }
}

}  // namespace

MosOperatingPoint eval_mos(const MosModel& m, double w_over_l, double vgs,
                           double vds, double vbs) {
  // The level-1 model is source/drain symmetric; normalize to vds >= 0 by
  // swapping terminals, then swap derivatives back at the end.
  const bool swapped = vds < 0.0;
  if (swapped) {
    // After swap: vgd becomes the new vgs; vbd the new vbs.
    const double vgd = vgs - vds;
    const double vbd = vbs - vds;
    vgs = vgd;
    vbs = vbd;
    vds = -vds;
  }

  double vt = 0.0;
  double dvt_dvbs = 0.0;
  mos_threshold(m.vt0, m.gamma, m.phi, std::sqrt(m.phi), vbs, vt, dvt_dvbs);
  MosOperatingPoint op = eval_mos_region(
      m.kp * w_over_l, m.lambda, m.subthreshold_n * kThermalVoltage,
      m.i_leak0 * w_over_l, vt, dvt_dvbs, vgs, vds);

  if (swapped) {
    // Undo the symmetry transform. With Ids(vgs,vds,vbs) =
    // -I'(vgs-vds, -vds, vbs-vds), the chain rule gives
    //   gm = -gm', gds = gm' + gds' + gmb', gmb = -gmb'.
    const double gm_p = op.gm;
    const double gds_p = op.gds;
    const double gmb_p = op.gmb;
    op.ids = -op.ids;
    op.gm = -gm_p;
    op.gds = gds_p + gm_p + gmb_p;
    op.gmb = -gmb_p;
  }
  return op;
}

void DeviceBatch::reserve(std::size_t lanes) {
  for (auto* lane : {&vt0, &gamma, &phi, &sqrt_phi, &n_vt, &i0, &beta, &lambda,
                     &vgs, &vds, &vbs, &ids, &gm, &gds, &gmb, &nvgs, &nvds,
                     &nvbs, &swapped, &vt, &dvt})
    lane->reserve(lanes);
}

void DeviceBatch::push_device(const MosModel& model, double w_over_l) {
  vt0.push_back(model.vt0);
  gamma.push_back(model.gamma);
  phi.push_back(model.phi);
  sqrt_phi.push_back(std::sqrt(model.phi));
  n_vt.push_back(model.subthreshold_n * kThermalVoltage);
  i0.push_back(model.i_leak0 * w_over_l);
  beta.push_back(model.kp * w_over_l);
  lambda.push_back(model.lambda);
  vgs.push_back(0.0);
  vds.push_back(0.0);
  vbs.push_back(0.0);
  ids.push_back(0.0);
  gm.push_back(0.0);
  gds.push_back(0.0);
  gmb.push_back(0.0);
}

void eval_mos_batch(DeviceBatch& b) {
  const std::size_t n = b.size();
  b.nvgs.resize(n);
  b.nvds.resize(n);
  b.nvbs.resize(n);
  b.swapped.resize(n);
  b.vt.resize(n);
  b.dvt.resize(n);

  batch_normalize(b.vgs.data(), b.vds.data(), b.vbs.data(), b.nvgs.data(),
                  b.nvds.data(), b.nvbs.data(), b.swapped.data(), n);
  batch_threshold(b.vt0.data(), b.gamma.data(), b.phi.data(),
                  b.sqrt_phi.data(), b.nvbs.data(), b.vt.data(), b.dvt.data(),
                  n);

  // Pass 3: region evaluation (exp calls and region branches): scalar.
  for (std::size_t i = 0; i < n; ++i) {
    const MosOperatingPoint op =
        eval_mos_region(b.beta[i], b.lambda[i], b.n_vt[i], b.i0[i], b.vt[i],
                        b.dvt[i], b.nvgs[i], b.nvds[i]);
    b.ids[i] = op.ids;
    b.gm[i] = op.gm;
    b.gds[i] = op.gds;
    b.gmb[i] = op.gmb;
  }

  batch_swapback_gds(b.swapped.data(), b.gds.data(), b.gm.data(),
                     b.gmb.data(), n);
  batch_swapback_negate(b.swapped.data(), b.ids.data(), n);
  batch_swapback_negate(b.swapped.data(), b.gm.data(), n);
  batch_swapback_negate(b.swapped.data(), b.gmb.data(), n);
}

const std::string& device_name(const Device& device) {
  return std::visit([](const auto& d) -> const std::string& { return d.name; },
                    device);
}

}  // namespace dot::spice
