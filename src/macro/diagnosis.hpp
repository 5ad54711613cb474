// Fault-dictionary diagnosis: the classic downstream application of a
// defect-oriented fault-simulation campaign. The dictionary maps
// observable signatures (which tests failed, which currents deviated)
// to the fault classes that produce them; given a failing device's
// observation, it returns the candidate defects ranked by likelihood
// (class magnitude), i.e. where to point the failure-analysis
// microscope.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "macro/detection.hpp"

namespace dot::macro {

/// The observable syndrome of a failing device under the simple tests.
struct Syndrome {
  bool missing_code = false;
  bool ivdd = false;
  bool iddq = false;
  bool iinput = false;

  bool operator==(const Syndrome&) const = default;
  /// Encodes to the dictionary bucket index (16 buckets).
  int key() const {
    return (missing_code ? 1 : 0) | (ivdd ? 2 : 0) | (iddq ? 4 : 0) |
           (iinput ? 8 : 0);
  }
};

struct Candidate {
  fault::CircuitFault fault;
  std::size_t magnitude = 0;   ///< Class count (likelihood weight).
  double posterior = 0.0;      ///< Normalized over the matching bucket.
};

class FaultDictionary {
 public:
  /// Adds one simulated fault class with its detection outcome.
  void add(const fault::FaultClass& cls, const DetectionOutcome& outcome);

  std::size_t size() const { return total_entries_; }

  /// Candidates whose syndrome matches exactly, ranked by magnitude;
  /// posteriors normalized within the bucket.
  std::vector<Candidate> diagnose(const Syndrome& observed,
                                  std::size_t max_candidates = 10) const;

  /// Diagnostic resolution metrics: how sharply the dictionary separates
  /// fault classes.
  struct Resolution {
    /// Expected posterior of the true fault (higher = sharper).
    double expected_posterior = 0.0;
    /// Number of non-empty syndrome buckets (of 16).
    int distinct_syndromes = 0;
  };
  Resolution resolution() const;

 private:
  /// Fault classes by the key() of the syndrome they produce.
  std::vector<fault::FaultClass> buckets_[16];
  std::size_t total_entries_ = 0;
};

}  // namespace dot::macro
