#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dot::util {

void RunningStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SignatureSpace::add_dimension(std::string name, Band band) {
  names_.push_back(std::move(name));
  bands_.push_back(band);
}

bool SignatureSpace::inside(const std::vector<double>& response) const {
  if (response.size() != bands_.size())
    throw std::invalid_argument("SignatureSpace::inside: dimension mismatch");
  for (std::size_t i = 0; i < bands_.size(); ++i)
    if (!bands_[i].contains(response[i])) return false;
  return true;
}

std::vector<std::size_t> SignatureSpace::violations(
    const std::vector<double>& response) const {
  if (response.size() != bands_.size())
    throw std::invalid_argument(
        "SignatureSpace::violations: dimension mismatch");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < bands_.size(); ++i)
    if (!bands_[i].contains(response[i])) out.push_back(i);
  return out;
}

}  // namespace dot::util
