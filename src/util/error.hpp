// Library-wide error types. All throwing code paths use these so callers
// can distinguish user errors (bad netlist, bad arguments) from numeric
// failures (non-convergence, singular matrix) and from campaign
// infrastructure failures (evaluation budgets, shard/journal handling).
#pragma once

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>

namespace dot::util {

/// Sentinel for "no fault-class index attached" on the resilience
/// errors below.
inline constexpr std::size_t kNoClassIndex = static_cast<std::size_t>(-1);

/// Malformed input: inconsistent netlist, unknown node, bad layout, ...
class InvalidInputError : public std::runtime_error {
 public:
  explicit InvalidInputError(const std::string& what)
      : std::runtime_error("invalid input: " + what) {}
};

/// Numeric failure: Newton-Raphson did not converge, singular Jacobian.
/// Fault simulation treats these as "pathological fault" and records the
/// fault as detected-by-construction only if the good circuit converges.
class ConvergenceError : public std::runtime_error {
 public:
  explicit ConvergenceError(const std::string& what)
      : std::runtime_error("convergence failure: " + what) {}
};

/// Wall-clock (or injected) evaluation budget exhausted while working on
/// one fault class. Unlike ConvergenceError this is NOT a statement
/// about the circuit -- the class outcome is unknown -- so the campaign
/// layer retries under escalating solver aids and finally records the
/// class as unresolved instead of detected-by-construction.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what,
                        std::size_t class_index = kNoClassIndex,
                        std::string macro = {})
      : std::runtime_error(annotate(what, class_index, macro)),
        class_index_(class_index),
        macro_(std::move(macro)) {}

  std::size_t class_index() const { return class_index_; }
  const std::string& macro() const { return macro_; }

 private:
  static std::string annotate(const std::string& what, std::size_t index,
                              const std::string& macro) {
    std::string msg = "evaluation timeout: " + what;
    if (!macro.empty()) msg += " [macro " + macro + "]";
    if (index != kNoClassIndex)
      msg += " [class " + std::to_string(index) + "]";
    return msg;
  }

  std::size_t class_index_ = kNoClassIndex;
  std::string macro_;
};

/// Shard / journal infrastructure failure: inconsistent shard
/// arguments, a journal that does not match the campaign configuration,
/// corrupt journal records, an incomplete shard set at merge time.
class ShardError : public std::runtime_error {
 public:
  explicit ShardError(const std::string& what,
                      std::size_t class_index = kNoClassIndex,
                      std::string macro = {})
      : std::runtime_error(annotate(what, class_index, macro)),
        class_index_(class_index),
        macro_(std::move(macro)) {}

  std::size_t class_index() const { return class_index_; }
  const std::string& macro() const { return macro_; }

 private:
  static std::string annotate(const std::string& what, std::size_t index,
                              const std::string& macro) {
    std::string msg = "shard error: " + what;
    if (!macro.empty()) msg += " [macro " + macro + "]";
    if (index != kNoClassIndex)
      msg += " [class " + std::to_string(index) + "]";
    return msg;
  }

  std::size_t class_index_ = kNoClassIndex;
  std::string macro_;
};

/// Rethrown by parallel sections: the message names the failing chunk
/// and its index range so a campaign abort identifies *which* work item
/// died; the original exception stays reachable for callers that need
/// the precise type.
class ParallelError : public std::runtime_error {
 public:
  ParallelError(const std::string& what, std::size_t chunk,
                std::exception_ptr original)
      : std::runtime_error(what), chunk_(chunk), original_(original) {}

  std::size_t chunk() const { return chunk_; }
  std::exception_ptr original() const { return original_; }

 private:
  std::size_t chunk_ = 0;
  std::exception_ptr original_;
};

}  // namespace dot::util
