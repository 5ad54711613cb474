#include "macro/diagnosis.hpp"

#include <algorithm>

namespace dot::macro {
namespace {

Syndrome syndrome_of(const DetectionOutcome& outcome) {
  Syndrome s;
  s.missing_code = outcome.missing_code;
  s.ivdd = outcome.ivdd;
  s.iddq = outcome.iddq;
  s.iinput = outcome.iinput;
  return s;
}

}  // namespace

void FaultDictionary::add(const fault::FaultClass& cls,
                          const DetectionOutcome& outcome) {
  buckets_[syndrome_of(outcome).key()].push_back(cls);
  ++total_entries_;
}

std::vector<Candidate> FaultDictionary::diagnose(
    const Syndrome& observed, std::size_t max_candidates) const {
  const auto& bucket = buckets_[observed.key()];
  double total = 0.0;
  for (const auto& entry : bucket)
    total += static_cast<double>(entry.count);

  std::vector<Candidate> candidates;
  candidates.reserve(bucket.size());
  for (const auto& entry : bucket) {
    Candidate c;
    c.fault = entry.representative;
    c.magnitude = entry.count;
    c.posterior =
        total > 0.0 ? static_cast<double>(entry.count) / total : 0.0;
    candidates.push_back(std::move(c));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.magnitude > b.magnitude;
            });
  if (candidates.size() > max_candidates) candidates.resize(max_candidates);
  return candidates;
}

FaultDictionary::Resolution FaultDictionary::resolution() const {
  Resolution r;
  double grand_total = 0.0;
  for (const auto& bucket : buckets_)
    for (const auto& entry : bucket)
      grand_total += static_cast<double>(entry.count);
  if (grand_total <= 0.0) return r;

  for (const auto& bucket : buckets_) {
    if (bucket.empty()) continue;
    ++r.distinct_syndromes;
    double bucket_total = 0.0;
    for (const auto& entry : bucket)
      bucket_total += static_cast<double>(entry.count);
    // E[posterior | bucket] = sum_i (w_i / bucket_total)^2 * bucket_total
    // weighted by P(bucket); summed over buckets this is the expected
    // posterior of the true fault under the dictionary.
    double sum_sq = 0.0;
    for (const auto& entry : bucket)
      sum_sq += static_cast<double>(entry.count) *
                static_cast<double>(entry.count);
    r.expected_posterior += sum_sq / bucket_total / grand_total;
  }
  return r;
}

}  // namespace dot::macro
