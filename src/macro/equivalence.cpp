#include "macro/equivalence.hpp"

#include <algorithm>

namespace dot::macro {

namespace {

/// Accumulates the slice ownership of one projected name.
struct SliceTracker {
  int slice = -1;          ///< Owning slice so far (-1: only shared seen).
  int lowest = -1;         ///< Lowest slice touched (inter-slice report).
  bool inter_slice = false;
  bool unmappable = false;

  void add(const std::optional<std::pair<int, std::string>>& mapped) {
    if (!mapped) {
      unmappable = true;
      return;
    }
    const int s = mapped->first;
    if (s < 0) return;  // shared name
    if (mapped->second.empty()) unmappable = true;  // no sub-cell hardware
    if (lowest < 0 || s < lowest) lowest = s;
    if (slice < 0)
      slice = s;
    else if (slice != s)
      inter_slice = true;
  }
};

}  // namespace

ProjectedFault project_fault(const fault::CircuitFault& fault,
                             const SliceMapper& mapper) {
  ProjectedFault out;
  SliceTracker tracker;
  fault::CircuitFault projected = fault;

  for (auto& net : projected.nets) {
    const auto mapped = mapper.net(net);
    tracker.add(mapped);
    if (mapped && !mapped->second.empty()) net = mapped->second;
  }
  if (!projected.device.empty()) {
    const auto mapped = mapper.device(projected.device);
    tracker.add(mapped);
    if (mapped && !mapped->second.empty()) projected.device = mapped->second;
  }
  if (!projected.gate_net.empty()) {
    const auto mapped = mapper.net(projected.gate_net);
    tracker.add(mapped);
    if (mapped && !mapped->second.empty()) projected.gate_net = mapped->second;
  }
  for (auto& tap : projected.isolated_taps) {
    const auto mapped = mapper.device(tap.device);
    tracker.add(mapped);
    if (mapped && !mapped->second.empty()) tap.device = mapped->second;
  }

  if (tracker.inter_slice) {
    // Couples several slices: no single-slice campaign contains it,
    // whether or not every name would map individually.
    out.locality = FaultLocality::kInterSlice;
    out.slice = tracker.lowest;
    return out;
  }
  if (tracker.unmappable) {
    out.locality = FaultLocality::kUnmappable;
    out.slice = tracker.slice;
    return out;
  }
  // Projected nets must stay sorted for key() canonicality: the prefix
  // strip can reorder them.
  std::sort(projected.nets.begin(), projected.nets.end());
  projected.nets.erase(
      std::unique(projected.nets.begin(), projected.nets.end()),
      projected.nets.end());
  out.locality = tracker.slice >= 0 ? FaultLocality::kSliceLocal
                                    : FaultLocality::kShared;
  out.slice = tracker.slice;
  out.fault = std::move(projected);
  return out;
}

EquivalenceReport compile_equivalence(std::vector<EquivalenceEntry> entries) {
  EquivalenceReport report;
  double total = 0.0, unresolved = 0.0;
  double comparable = 0.0, verdict = 0.0, detection = 0.0, signature = 0.0;
  double composite_detected = 0.0, decomposed_detected = 0.0;
  std::array<double, kFaultLocalityCount> buckets{};

  for (const auto& e : entries) {
    total += e.weight;
    buckets[static_cast<int>(e.locality)] += e.weight;
    if (e.composite_unresolved) {
      unresolved += e.weight;
      continue;
    }
    if (e.composite_detection.detected()) composite_detected += e.weight;
    const bool mapped = e.locality == FaultLocality::kSliceLocal ||
                        e.locality == FaultLocality::kShared;
    if (mapped && !e.projected_unresolved &&
        e.projected_detection.detected())
      decomposed_detected += e.weight;
    if (!e.comparable()) continue;
    comparable += e.weight;
    ++report.comparable_classes;
    if (e.verdict_match())
      verdict += e.weight;
    else
      ++report.verdict_mismatches;
    if (e.detection_match()) detection += e.weight;
    if (e.signature_match()) signature += e.weight;
  }

  if (total > 0.0) {
    for (auto& b : buckets) b /= total;
    report.unresolved_weight = unresolved / total;
    report.composite_coverage = composite_detected / total;
    report.decomposed_coverage = decomposed_detected / total;
  }
  report.locality_weight = buckets;
  if (comparable > 0.0) {
    report.verdict_agreement = verdict / comparable;
    report.detection_agreement = detection / comparable;
    report.signature_agreement = signature / comparable;
  }
  report.entries = std::move(entries);
  return report;
}

}  // namespace dot::macro
