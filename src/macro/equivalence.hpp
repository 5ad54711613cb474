// Decomposition-equivalence layer: maps fault classes extracted from a
// composite cell (a flat comparator bank) back onto the per-slice macro
// the divide-and-conquer methodology simulates instead, and quantifies
// what the decomposition hides.
//
// The paper's macro partitioning assumes every defect lands inside one
// macro's footprint. On a flat layout that assumption fails in two
// ways this layer makes explicit:
//  - genuine inter-slice coupling faults (a bridge between two slices'
//    internal nets, an adjacent reference-tap short) have NO counterpart
//    in any single-slice campaign;
//  - shared-distribution faults (bias/clock/supply bridges) exist in the
//    per-slice macro too, but with per-instance likelihood weights
//    instead of one column-wide class.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "macro/detection.hpp"
#include "macro/signature.hpp"

namespace dot::macro {

/// Where a composite-cell fault class lands under slice decomposition.
enum class FaultLocality {
  kSliceLocal,  ///< Every net/device maps into one slice (+ shared pins).
  kShared,      ///< Only shared distribution nets: seen by every slice.
  kInterSlice,  ///< Couples >= 2 slices: invisible to the decomposition.
  kUnmappable,  ///< Needs hardware the sub-macro does not contain.
};
inline constexpr int kFaultLocalityCount = 4;

/// Maps one composite-cell name into (slice, sub-cell name). Slice -1
/// means shared (present in the sub-cell under the same name); an empty
/// mapped name means "belongs to that slice but has no sub-cell
/// counterpart" (e.g. the reference-string resistors); nullopt means
/// unknown, which project_fault treats as unmappable.
using SliceNameMap =
    std::function<std::optional<std::pair<int, std::string>>(
        const std::string&)>;

struct SliceMapper {
  SliceNameMap net;
  SliceNameMap device;
};

/// A composite-cell fault projected onto the sub-cell namespace.
struct ProjectedFault {
  FaultLocality locality = FaultLocality::kUnmappable;
  /// Owning slice for kSliceLocal; lowest touched slice for
  /// kInterSlice; -1 for kShared / kUnmappable.
  int slice = -1;
  /// Valid for kSliceLocal and kShared only: the equivalent sub-cell
  /// fault, in sub-cell net/device names.
  std::optional<fault::CircuitFault> fault;
};

/// Projects a composite fault through the mapper. Nets/devices that map
/// to different slices demote the fault to kInterSlice; names the
/// mapper cannot place (or that have no sub-cell counterpart) demote it
/// to kUnmappable.
ProjectedFault project_fault(const fault::CircuitFault& fault,
                             const SliceMapper& mapper);

/// One composite-cell fault class diffed against its projected
/// counterpart's evaluation.
struct EquivalenceEntry {
  std::size_t index = 0;  ///< Class index in the composite campaign.
  FaultLocality locality = FaultLocality::kUnmappable;
  int slice = -1;
  double weight = 0.0;  ///< Class magnitude (likelihood).
  std::string composite_key;  ///< CircuitFault::key() of the bank class.
  std::string projected_key;  ///< Key of the projection (mapped classes).
  /// Composite- and sub-macro-level evaluations (sub side only for
  /// mapped classes).
  VoltageSignature composite_voltage = VoltageSignature::kNoDeviation;
  VoltageSignature projected_voltage = VoltageSignature::kNoDeviation;
  DetectionOutcome composite_detection;
  DetectionOutcome projected_detection;
  bool composite_unresolved = false;
  bool projected_unresolved = false;

  /// Both campaigns resolved and the class is mapped: the diff below is
  /// meaningful.
  bool comparable() const {
    return (locality == FaultLocality::kSliceLocal ||
            locality == FaultLocality::kShared) &&
           !composite_unresolved && !projected_unresolved;
  }
  /// Same detected-at-all verdict.
  bool verdict_match() const {
    return composite_detection.detected() == projected_detection.detected();
  }
  /// Same per-mechanism detection flags.
  bool detection_match() const {
    return composite_detection.missing_code ==
               projected_detection.missing_code &&
           composite_detection.ivdd == projected_detection.ivdd &&
           composite_detection.iddq == projected_detection.iddq &&
           composite_detection.iinput == projected_detection.iinput;
  }
  /// Same voltage-signature class (Table 2 bucket).
  bool signature_match() const {
    return composite_voltage == projected_voltage;
  }
};

/// The diff of a flat-composite campaign against its decomposition.
/// Weights are normalized over ALL composite classes, so the buckets --
/// including the inter-slice weight the decomposition never sees --
/// account for the full denominator.
struct EquivalenceReport {
  std::vector<EquivalenceEntry> entries;

  /// Weight fraction per locality bucket (sums to 1 with unresolved).
  std::array<double, kFaultLocalityCount> locality_weight{};
  /// Weight fraction of composite classes that never resolved.
  double unresolved_weight = 0.0;
  /// Among comparable classes: weight fractions (of the comparable
  /// weight) agreeing on each criterion.
  double verdict_agreement = 0.0;
  double detection_agreement = 0.0;
  double signature_agreement = 0.0;
  /// Detected weight fraction over the full composite population...
  double composite_coverage = 0.0;
  /// ...and what the decomposition would report for the same classes:
  /// projected verdicts for mapped classes; inter-slice and unmappable
  /// weight carried undetected (the decomposition never simulates it).
  double decomposed_coverage = 0.0;

  std::size_t comparable_classes = 0;
  std::size_t verdict_mismatches = 0;

  double slice_local_weight() const {
    return locality_weight[static_cast<int>(FaultLocality::kSliceLocal)];
  }
  double shared_weight() const {
    return locality_weight[static_cast<int>(FaultLocality::kShared)];
  }
  double inter_slice_weight() const {
    return locality_weight[static_cast<int>(FaultLocality::kInterSlice)];
  }
  double unmappable_weight() const {
    return locality_weight[static_cast<int>(FaultLocality::kUnmappable)];
  }
};

/// Compiles the per-entry diff list into the report: bucket weights,
/// agreement rates and the coverage comparison. Entries keep their
/// order.
EquivalenceReport compile_equivalence(std::vector<EquivalenceEntry> entries);

}  // namespace dot::macro
