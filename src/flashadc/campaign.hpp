// Full defect-oriented test path for the case-study ADC (paper fig. 1):
// defect simulation -> fault collapsing -> circuit-level fault models ->
// fault simulation -> fault signatures -> sensitization/propagation ->
// fault detection, per macro; plus the area-scaled global compilation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "defect/simulate.hpp"
#include "fault/fault.hpp"
#include "fault/model.hpp"
#include "flashadc/comparator.hpp"
#include "macro/detection.hpp"
#include "macro/envelope.hpp"
#include "macro/equivalence.hpp"
#include "macro/signature.hpp"
#include "spice/solver.hpp"

namespace dot::flashadc {

class CampaignJournal;

/// Knobs for the campaign resilience layer: sharding, crash-safe
/// journaling/resume, and graceful degradation on pathological fault
/// classes. Defaults reproduce the original single-process,
/// no-journal, no-deadline behaviour exactly.
struct ResilienceOptions {
  /// Wall-clock budget per fault-class evaluation attempt in
  /// milliseconds (0 = unlimited). Expiry aborts the attempt with
  /// util::TimeoutError and triggers a retry at the next aid level.
  double class_timeout_ms = 0.0;
  /// Retries after the first failed attempt; each retry escalates the
  /// continuation aid ladder (see spice/resilience.hpp). A class still
  /// failing after 1 + max_retries attempts is recorded kUnresolved.
  int max_retries = 3;
  /// Split the collapsed fault-class list into `shard_count`
  /// deterministic shards; this process evaluates class index c iff
  /// c % shard_count == shard_index. The union of all shards is
  /// bit-identical to an unsharded run at the same seed.
  std::size_t shard_count = 1;
  std::size_t shard_index = 0;
  /// Append-only JSONL journal of completed class outcomes (empty =
  /// no journaling). Flushed via write-to-temp + atomic rename every
  /// `checkpoint_block` records, so a crash loses at most one block.
  std::string journal_path;
  /// Replay an existing journal at `journal_path`: completed classes
  /// are skipped and their outcomes restored instead of re-evaluated.
  bool resume = false;
  /// Records per checkpoint flush.
  std::size_t checkpoint_block = 16;
  /// Optional hook invoked with every journal record line (macro and
  /// class records, never the meta record) just before it is appended
  /// to the journal. perfbench's stage clock ends a timing stage at
  /// each record through it. May be called concurrently from evaluation
  /// workers; exceptions propagate out of the evaluation.
  std::function<void(const std::string& line)> journal_observer;
};

struct CampaignConfig {
  std::size_t defect_count = 500000;
  std::uint64_t seed = 1995;
  int envelope_samples = 25;
  ComparatorDft dft;
  /// Evaluate at most this many fault classes per macro (0 = all);
  /// classes are ranked by likelihood, so truncation keeps the weight
  /// distribution nearly intact. Used to bound test runtimes.
  std::size_t max_classes = 0;
  /// Also derive and evaluate non-catastrophic (near-miss) variants.
  bool with_noncatastrophic = true;
  /// Acceptance-band policy for the good-signature envelope (ablation
  /// benches sweep k_sigma and the tester noise floors).
  macro::BandPolicy band_policy{3.0, 2e-6, 0.02};
  /// Circuit-level fault-model parameters (bridge resistances etc.);
  /// the per-macro supply net is filled in by each campaign.
  fault::FaultModelOptions fault_models;
  /// Defect statistics used for sprinkling.
  defect::DefectStatistics statistics;
  /// Linear-solver options for every solve in the campaign (the
  /// dense/sparse crossover). The golden symbolic factorization is
  /// cached per macro context and shared across workers; results are
  /// bit-identical at any thread count.
  spice::SolverOptions solver;
  /// Sharding / checkpoint-resume / degradation knobs.
  ResilienceOptions resilience;
  /// Batched prepass on the transient-bench macros (comparator, bank,
  /// chip): the first scalar attempt of every class, run in chunks of
  /// this many classes before the class loop. 1 = no prepass (default);
  /// 0 = auto (currently 32). A class whose prepass attempt fails (its
  /// budget spent) runs the unchanged scalar attempt ladder, so
  /// verdicts and resilience semantics are the same at any value.
  std::size_t batch = 1;
  /// Collect the device-eval / assembly / factor / solve wall-time
  /// breakdown of the transient class evaluations, batched or scalar
  /// (MacroCampaignResult::phase_times). Off by default: the hot loops
  /// stay clock-free.
  bool collect_phase_times = false;
  /// Which macro campaign run_campaign drives: "all" (the five-macro
  /// decomposed flow) or a single campaign-table macro name --
  /// comparator / ladder / biasgen / clockgen / decoder / bank / chip.
  std::string macro_selection = "all";
  /// Column height for the flat comparator-bank macro (2..256, must
  /// divide 256). Only meaningful with macro_selection == "bank".
  int bank_size = 64;
  /// Comparator count for the full-chip macro (4..256, must divide 256
  /// and be a multiple of 4 so the thermometer decoder tiles). Only
  /// meaningful with macro_selection == "chip".
  int chip_slices = 256;
};

/// How a fault-class evaluation resolved.
enum class EvalStatus {
  kOk,          ///< Produced a trustworthy signature.
  kUnresolved,  ///< Exhausted the retry/aid budget; outcome untrusted.
};

/// One evaluated fault class.
struct FaultOutcome {
  fault::FaultClass cls;
  bool non_catastrophic = false;
  macro::VoltageSignature voltage = macro::VoltageSignature::kNoDeviation;
  macro::CurrentSignature current;
  macro::DetectionOutcome detection;
  /// Resolution of the evaluation guard. Unresolved classes carry a
  /// blank signature and are reported in their own coverage bucket --
  /// never counted detected or undetected.
  EvalStatus status = EvalStatus::kOk;
  /// Evaluation attempts spent (1 = first try succeeded).
  int attempts = 1;
  /// Diagnostic from the last failed attempt (empty when status==kOk).
  std::string failure;
};

struct MacroCampaignResult {
  std::string macro_name;
  double cell_area = 0.0;
  std::size_t instance_count = 1;
  defect::CampaignResult defects;
  std::vector<FaultOutcome> catastrophic;
  std::vector<FaultOutcome> noncatastrophic;
  /// Fault classes whose whole evaluation came from the batched
  /// prepass (0 on the scalar path / non-batched macros).
  std::size_t batch_evaluated = 0;
  /// Solver wall-time breakdown summed over the transient class
  /// evaluations in class order (DC macros and journal-restored classes
  /// add none); all zero unless CampaignConfig::collect_phase_times was
  /// set.
  spice::PhaseTimes phase_times;

  /// Weighted outcomes for the global compilation.
  macro::MacroContribution contribution(bool non_catastrophic) const;
  /// Weighted fraction per voltage signature (paper Table 2).
  std::vector<double> voltage_signature_fractions(bool non_catastrophic) const;
  /// Weighted fraction with each current flag set (paper Table 3): the
  /// returned vector is {ivdd, iddq, iinput, none}.
  std::vector<double> current_signature_fractions(bool non_catastrophic) const;
  /// Weighted fraction of detected faults. Unresolved classes count in
  /// the denominator but never the numerator (conservative coverage).
  double coverage(bool non_catastrophic) const;
  /// Weighted fraction detected by current measurements.
  double current_coverage(bool non_catastrophic) const;
  /// Weighted fraction of classes whose evaluation never resolved.
  double unresolved_weight(bool non_catastrophic) const;
  /// Number of unresolved classes across both outcome vectors.
  std::size_t unresolved_classes() const;
};

/// Every macro of the campaign table, in canonical order: the paper's
/// five-macro decomposed flow (comparator, ladder, biasgen, clockgen,
/// decoder), then the flat bank and chip. Reports and merged journals
/// list macros in this order.
std::vector<std::string> campaign_macros();

/// config.macro_selection resolved against the campaign table: "all"
/// (also for an empty selection) or one table macro name. Throws
/// util::InvalidInputError on any other name.
std::string resolve_selection(const CampaignConfig& config);

/// Macro names `config` will run and journal, in campaign order: the
/// five-macro decomposed flow for "all", else the one selected macro.
/// Throws util::InvalidInputError on an unknown selection.
std::vector<std::string> expected_macros(const CampaignConfig& config);

/// One macro campaign of the table (paper fig. 1): sprinkle -> collapse
/// -> golden runs -> 3-sigma good-signature envelope -> class
/// evaluation, journaled when `journal` is set. "bank" simulates
/// config.bank_size comparator slices as one netlist; "chip" simulates
/// config.chip_slices comparators plus the bias generator, clock
/// generator and thermometer decoder as one netlist, the coverage
/// number with no decomposition assumptions at all. Both observe each
/// fault class at the slice it touches. Throws util::InvalidInputError
/// on a name outside the table.
MacroCampaignResult run_macro_campaign(const CampaignConfig& config,
                                       const std::string& name,
                                       CampaignJournal* journal = nullptr);

/// Whole-circuit results (paper figures 4 and 5).
struct GlobalResult {
  std::vector<MacroCampaignResult> macros;
  macro::VennResult venn_catastrophic;
  macro::VennResult venn_noncatastrophic;
  macro::MechanismMatrix matrix_catastrophic;
  macro::MechanismMatrix matrix_noncatastrophic;
};

/// The five-macro decomposed flow, whatever config.macro_selection says.
GlobalResult run_full_campaign(CampaignConfig config);

/// Runs expected_macros(config) (journaled when configured) and
/// compiles them. Throws util::InvalidInputError on an unknown
/// selection.
GlobalResult run_campaign(const CampaignConfig& config);

/// Compiles the global figures from already-run macro results.
GlobalResult compile_global(std::vector<MacroCampaignResult> macros);

/// Diffs a finished flat-column campaign (bank or chip) against the
/// paper's per-comparator decomposition: every class is projected onto
/// the single-comparator macro (macro::project_fault with the macro's
/// slice mapper); mapped classes are re-evaluated there under the same
/// band policy, and inter-slice / unmappable classes -- the weight the
/// decomposition never sees, including the chip's decoder, clockgen and
/// biasgen hardware -- are bucketed separately with their weight kept
/// in every coverage denominator. Throws util::InvalidInputError for a
/// macro without a slice mapper.
macro::EquivalenceReport compare_decomposition(
    const CampaignConfig& config, const MacroCampaignResult& result);

}  // namespace dot::flashadc
