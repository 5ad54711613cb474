// The result side of a campaign: the per-macro summaries declared on
// MacroCampaignResult (coverage, signature fractions, contributions),
// the global compilation (compile_global) and their JSON export --
// per-class records (kind, nets, signatures, detection), per-macro
// summaries and the global Venn, the machine-readable companion of the
// bench/ text tables.
#pragma once

#include <string>

#include "flashadc/campaign.hpp"

namespace dot::flashadc {

/// Serializes one macro campaign (defect statistics, every evaluated
/// fault class with its signatures and detection outcome).
std::string to_json(const MacroCampaignResult& result);

/// Serializes a whole-circuit result (per-macro summaries + global
/// Venn figures). With `interrupted`, the report leads with an explicit
/// "interrupted": true marker so downstream tooling never mistakes a
/// partial (SIGINT/SIGTERM-drained) campaign for a finished one; a
/// completed campaign's report is byte-identical to the one-argument
/// overload.
std::string to_json(const GlobalResult& result);
std::string to_json(const GlobalResult& result, bool interrupted);

}  // namespace dot::flashadc
