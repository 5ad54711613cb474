#include "flashadc/campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "flashadc/bank.hpp"
#include "flashadc/behavioral.hpp"
#include "flashadc/chip.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/journal.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "spice/batch.hpp"
#include "spice/montecarlo.hpp"
#include "spice/resilience.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/shutdown.hpp"

namespace dot::flashadc {

using fault::FaultClass;
using fault::FaultModelOptions;
using macro::CurrentSignature;
using macro::DetectionOutcome;
using macro::VoltageSignature;
using spice::Netlist;

namespace {

/// Missing-code propagation for comparator-style voltage signatures:
/// stuck-at and >8 mV offsets produce missing codes through the edge
/// decoder; clock-value / mixed / no-deviation do not (paper 3.2,
/// validated against the behavioral model in the test suite).
bool propagate_missing_code(VoltageSignature signature) {
  return signature == VoltageSignature::kOutputStuckAt ||
         signature == VoltageSignature::kOffset;
}

DetectionOutcome make_outcome(VoltageSignature voltage,
                              const CurrentSignature& current) {
  DetectionOutcome out;
  out.missing_code = propagate_missing_code(voltage);
  out.ivdd = current.ivdd;
  out.iddq = current.iddq;
  out.iinput = current.iinput;
  return out;
}

/// Fewer detection mechanisms = harder to detect. The paper keeps the
/// worst-case (hardest) gate-oxide pinhole variant.
int detectability_score(const FaultOutcome& outcome) {
  int score = 0;
  if (outcome.detection.missing_code) score += 1;
  if (outcome.detection.ivdd) score += 1;
  if (outcome.detection.iddq) score += 1;
  if (outcome.detection.iinput) score += 1;
  return score;
}

/// Catastrophic / non-catastrophic outcome pair of one fault class.
struct ClassEval {
  std::optional<FaultOutcome> cat;
  std::optional<FaultOutcome> noncat;
};

/// Class index -> finished evaluation, produced by the batched prepass;
/// evaluate_classes consumes these instead of re-simulating.
using PrecomputedEvals = std::unordered_map<std::size_t, ClassEval>;

std::vector<FaultClass> truncated_classes(
    const defect::CampaignResult& defects, const CampaignConfig& config) {
  std::vector<FaultClass> classes = defects.classes;
  if (config.max_classes > 0 && classes.size() > config.max_classes)
    classes.resize(config.max_classes);
  return classes;
}

defect::CampaignResult sprinkle(const macro::MacroCell& cell,
                                const CampaignConfig& config,
                                std::uint64_t seed_offset) {
  defect::CampaignOptions opt;
  opt.statistics = config.statistics;
  opt.defect_count = config.defect_count;
  opt.seed = config.seed + seed_offset;
  opt.vdd_net = cell.layout.name() == "clockgen" ||
                        cell.layout.name() == "decoder"
                    ? "vddd"
                    : "vdda";
  return defect::run_campaign(cell.layout, opt);
}

FaultModelOptions model_options(const CampaignConfig& config,
                                const std::string& vdd_net) {
  FaultModelOptions opt = config.fault_models;
  opt.vdd_net = vdd_net;
  opt.new_device_model = nmos_model();
  return opt;
}

/// Shared evaluation skeleton: for each (possibly truncated) fault
/// class, for each model variant and catastrophic/non-catastrophic
/// form, run `evaluate(faulty_netlist, representative)` on the faulty
/// macro netlist and keep the hardest-to-detect variant. The
/// representative rides along so campaigns with fault-dependent
/// observation points (the bank picks the touched slice) can steer the
/// measurement.
///
/// Classes are evaluated in parallel: each one builds its own faulty
/// netlist and shares only read-only state (good netlist, options, the
/// per-macro context captured by `evaluate`), and the results are
/// appended in likelihood order afterwards, so the outcome vectors are
/// bit-identical at any thread count.
///
/// The resilience layer hooks in here:
///   * sharding -- this process evaluates class c iff
///     c % shard_count == shard_index; classes are independent, so the
///     union of all shards equals the unsharded run bit-for-bit;
///   * resume -- classes already in the journal are restored instead of
///     re-evaluated (the stored representative is abbreviated, so it is
///     rehydrated from the deterministic re-sprinkle);
///   * graceful degradation -- each class runs under an EvalScope with
///     the configured wall-clock budget; a failed attempt is retried
///     with the continuation aid ladder escalated one rung, and a class
///     that exhausts 1 + max_retries attempts is carried as a
///     structured kUnresolved outcome instead of aborting the campaign.
///   * batching -- classes the batched prepass already finished (see
///     batch_prepass) are taken from `precomputed` instead of
///     re-simulated; a class the prepass evicted is simply absent and
///     runs through the unchanged scalar attempt ladder below.
template <typename Evaluate>
void evaluate_classes(const std::string& macro_name, const Netlist& good,
                      const std::vector<FaultClass>& classes,
                      const FaultModelOptions& model_opt,
                      const CampaignConfig& config, CampaignJournal* journal,
                      Evaluate&& evaluate,
                      std::vector<FaultOutcome>& catastrophic,
                      std::vector<FaultOutcome>& noncatastrophic,
                      const PrecomputedEvals* precomputed = nullptr) {
  const ResilienceOptions& res = config.resilience;
  if (res.shard_count == 0 || res.shard_index >= res.shard_count)
    throw util::ShardError("shard index " + std::to_string(res.shard_index) +
                           " out of range for " +
                           std::to_string(res.shard_count) + " shards");

  auto evaluate_once = [&](std::size_t c) {
    const auto& cls = classes[c];
    ClassEval eval;
    for (int pass = 0; pass < 2; ++pass) {
      const bool noncat = pass == 1;
      if (noncat && (!config.with_noncatastrophic ||
                     !fault::supports_noncatastrophic(cls.representative)))
        continue;
      std::optional<FaultOutcome> worst;
      const int variants = fault::model_variant_count(cls.representative);
      for (int variant = 0; variant < variants; ++variant) {
        Netlist faulty = fault::apply_fault(good, cls.representative,
                                            model_opt, variant, noncat);
        FaultOutcome outcome = evaluate(faulty, cls.representative);
        outcome.cls = cls;
        outcome.non_catastrophic = noncat;
        if (!worst ||
            detectability_score(outcome) < detectability_score(*worst))
          worst = std::move(outcome);
      }
      (noncat ? eval.noncat : eval.cat) = std::move(worst);
    }
    return eval;
  };

  auto evals = util::parallel_map(classes.size(), [&](std::size_t c) {
    ClassEval eval;
    if (c % res.shard_count != res.shard_index) return eval;
    if (journal != nullptr) {
      if (const ClassRecord* record = journal->completed(macro_name, c)) {
        eval.cat = record->catastrophic;
        eval.noncat = record->noncatastrophic;
        if (eval.cat) eval.cat->cls = classes[c];
        if (eval.noncat) eval.noncat->cls = classes[c];
        return eval;
      }
    }
    if (precomputed != nullptr) {
      if (const auto it = precomputed->find(c); it != precomputed->end()) {
        eval = it->second;
        if (journal != nullptr)
          journal->record_class(macro_name, c, eval.cat, eval.noncat);
        return eval;
      }
    }
    // Graceful shutdown: skip classes not yet evaluated (restored and
    // precomputed ones above still land in the partial report); the
    // caller marks the report `interrupted` and exits nonzero.
    if (util::shutdown_requested()) return eval;
    const int attempts_allowed = 1 + std::max(0, res.max_retries);
    std::string failure;
    for (int attempt = 1; attempt <= attempts_allowed; ++attempt) {
      spice::EvalBudget budget;
      budget.timeout_ms = res.class_timeout_ms;
      budget.aid_level = attempt - 1;
      spice::EvalScope scope(macro_name, c, budget);
      try {
        eval = evaluate_once(c);
        if (eval.cat) eval.cat->attempts = attempt;
        if (eval.noncat) eval.noncat->attempts = attempt;
        failure.clear();
        break;
      } catch (const util::ShardError&) {
        throw;  // infrastructure failure, not a circuit pathology
      } catch (const std::exception& e) {
        failure = e.what();
        eval = ClassEval{};
      }
    }
    if (!failure.empty()) {
      // Retry/aid budget exhausted: carry the class as a structured
      // unresolved outcome. It lands in its own coverage bucket --
      // never silently counted detected or undetected.
      auto unresolved = [&](bool noncat) {
        FaultOutcome o;
        o.cls = classes[c];
        o.non_catastrophic = noncat;
        o.status = EvalStatus::kUnresolved;
        o.attempts = attempts_allowed;
        o.failure = failure;
        return o;
      };
      eval.cat = unresolved(false);
      if (config.with_noncatastrophic &&
          fault::supports_noncatastrophic(classes[c].representative))
        eval.noncat = unresolved(true);
    }
    if (journal != nullptr)
      journal->record_class(macro_name, c, eval.cat, eval.noncat);
    return eval;
  });
  for (auto& eval : evals) {
    if (eval.cat) catastrophic.push_back(std::move(*eval.cat));
    if (eval.noncat) noncatastrophic.push_back(std::move(*eval.noncat));
  }
}

/// Batched prepass over the transient-bench macros (comparator / bank /
/// chip): enumerates every (class, pass, variant, decision-grid)
/// transient of a chunk of fault classes, hands them to
/// spice::run_transient_batch -- which shares the symbolic analysis
/// and the first DC iterate across the batch -- and reassembles
/// per-class outcomes with the exact worst-variant logic of the scalar
/// path. Chunks run in parallel on the global pool. Semantics mirror
/// the scalar flow case by case:
///   * a member whose transient fails to converge contributes a
///     converged=false run record, exactly like simulate_comparator's
///     swallowed ConvergenceError;
///   * a member that exhausts the class wall-clock budget (or dies
///     unexpectedly) evicts its whole class from the returned map --
///     evaluate_classes then runs the unchanged scalar attempt ladder,
///     so retry/aid/kUnresolved accounting is untouched.
/// `make_bench(faulty, representative, grid)` instantiates the bench,
/// `extract_run(result, representative)` reads the run record and
/// `classify(runs, representative)` produces the outcome (cls /
/// non_catastrophic are filled in here).
template <typename MakeBench, typename ExtractRun, typename ClassifyRuns>
PrecomputedEvals batch_prepass(
    const std::string& macro_name, const Netlist& good,
    const std::vector<FaultClass>& classes,
    const FaultModelOptions& model_opt, const CampaignConfig& config,
    CampaignJournal* journal, const spice::TranOptions& tran,
    MakeBench&& make_bench, ExtractRun&& extract_run, ClassifyRuns&& classify,
    MacroCampaignResult& result) {
  const ResilienceOptions& res = config.resilience;
  spice::TranOptions options = tran;
  options.solver = config.solver;
  options.collect_phase_times = config.collect_phase_times;

  // Classes this process still has to evaluate: its shard, minus what
  // a resumed journal already holds.
  std::vector<std::size_t> pending;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (c % res.shard_count != res.shard_index) continue;
    if (journal != nullptr && journal->completed(macro_name, c) != nullptr)
      continue;
    pending.push_back(c);
  }

  // Auto chunk: 32 classes. Chunks are also capped at an even share of
  // the pending classes per worker thread, so every thread gets one;
  // no member's result depends on the chunking.
  const std::size_t threads = util::ThreadPool::global_thread_count();
  const std::size_t share = (pending.size() + threads - 1) / threads;
  const std::size_t chunk =
      std::max<std::size_t>(1, std::min(config.batch == 0 ? 32 : config.batch,
                                        share));
  const std::size_t chunk_count = (pending.size() + chunk - 1) / chunk;

  struct JobKey {
    std::size_t cls = 0;
    bool noncat = false;
    int variant = 0;
    std::size_t grid = 0;
  };
  /// One chunk's finished classes (in class order) and its telemetry.
  struct ChunkEvals {
    std::vector<std::pair<std::size_t, ClassEval>> evals;
    spice::PhaseTimes phase_times;
  };

  auto skip_pass = [&](const FaultClass& cls, bool noncat) {
    return noncat && (!config.with_noncatastrophic ||
                      !fault::supports_noncatastrophic(cls.representative));
  };

  auto run_chunk = [&](std::size_t k) {
    ChunkEvals part;
    if (util::shutdown_requested()) return part;  // graceful-interrupt drain
    const std::size_t start = k * chunk;
    const std::size_t end = std::min(pending.size(), start + chunk);
    std::vector<std::unique_ptr<Netlist>> benches;
    std::vector<spice::BatchJob> jobs;
    std::vector<JobKey> keys;
    for (std::size_t p = start; p < end; ++p) {
      const std::size_t c = pending[p];
      const FaultClass& cls = classes[c];
      for (int pass = 0; pass < 2; ++pass) {
        const bool noncat = pass == 1;
        if (skip_pass(cls, noncat)) continue;
        const int variants = fault::model_variant_count(cls.representative);
        for (int variant = 0; variant < variants; ++variant) {
          const Netlist faulty = fault::apply_fault(good, cls.representative,
                                                    model_opt, variant, noncat);
          for (std::size_t g = 0; g < kDecisionGrid.size(); ++g) {
            benches.push_back(std::make_unique<Netlist>(
                make_bench(faulty, cls.representative, g)));
            spice::BatchJob job;
            job.netlist = benches.back().get();
            job.options = options;
            job.scope_macro = macro_name;
            job.scope_class = c;
            job.timeout_ms = res.class_timeout_ms;
            jobs.push_back(std::move(job));
            keys.push_back({c, noncat, variant, g});
          }
        }
      }
    }
    const auto outcomes = spice::run_transient_batch(jobs);

    for (std::size_t p = start; p < end; ++p) {
      const std::size_t c = pending[p];
      const FaultClass& cls = classes[c];
      bool evicted = false;
      for (std::size_t j = 0; j < keys.size(); ++j)
        if (keys[j].cls == c && !outcomes[j].completed) evicted = true;
      if (evicted) continue;  // scalar attempt ladder takes over
      ClassEval eval;
      for (int pass = 0; pass < 2; ++pass) {
        const bool noncat = pass == 1;
        if (skip_pass(cls, noncat)) continue;
        std::optional<FaultOutcome> worst;
        const int variants = fault::model_variant_count(cls.representative);
        for (int variant = 0; variant < variants; ++variant) {
          std::array<ComparatorRun, 4> runs{};
          for (std::size_t j = 0; j < keys.size(); ++j) {
            const JobKey& key = keys[j];
            if (key.cls != c || key.noncat != noncat || key.variant != variant)
              continue;
            if (outcomes[j].converged) {
              runs[key.grid] =
                  extract_run(*outcomes[j].result, cls.representative);
              part.phase_times += outcomes[j].result->stats().phases;
            }
            // else: default-constructed run, converged == false -- the
            // same record simulate_comparator's catch produces.
          }
          FaultOutcome outcome = classify(runs, cls.representative);
          outcome.cls = cls;
          outcome.non_catastrophic = noncat;
          if (!worst ||
              detectability_score(outcome) < detectability_score(*worst))
            worst = std::move(outcome);
        }
        (noncat ? eval.noncat : eval.cat) = std::move(worst);
      }
      part.evals.emplace_back(c, std::move(eval));
    }
    return part;
  };

  PrecomputedEvals out;
  for (ChunkEvals& part : util::parallel_map(chunk_count, run_chunk)) {
    for (auto& [c, eval] : part.evals) out.emplace(c, std::move(eval));
    result.batch_evaluated += part.evals.size();
    result.phase_times += part.phase_times;
  }
  return out;
}

/// Everything the comparator fault evaluation needs, hoisted so the
/// decomposition-equivalence diff can re-evaluate projected bank
/// classes with the exact per-comparator machinery the campaign uses.
struct ComparatorEvalContext {
  macro::MacroCell cell;
  std::array<ComparatorRun, 4> nominal;
  macro::GoodEnvelope envelope;

  /// Classification given the four grid runs; shared by the scalar
  /// path (which simulates them here) and the batched prepass (which
  /// simulated them in batches).
  FaultOutcome evaluate_runs(const std::array<ComparatorRun, 4>& runs) const {
    FaultOutcome outcome;
    outcome.voltage = classify_comparator(runs, nominal);
    if (runs.front().converged && runs.back().converged) {
      outcome.current = envelope.classify(
          comparator_measurements(runs.front(), runs.back()));
    } else {
      // The faulty circuit has no valid operating point (typically a
      // hard supply short): its supply current is grossly abnormal.
      outcome.current.ivdd = true;
    }
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    return outcome;
  }

  FaultOutcome evaluate(const Netlist& faulty_macro) const {
    std::array<ComparatorRun, 4> runs;
    for (std::size_t i = 0; i < kDecisionGrid.size(); ++i)
      runs[i] = simulate_comparator(faulty_macro, kDecisionGrid[i]);
    return evaluate_runs(runs);
  }
};

ComparatorEvalContext make_comparator_eval_context(
    const CampaignConfig& config) {
  macro::MacroCell cell = build_comparator_macro(config.dft);

  // Fault-free reference runs.
  auto nominal = simulate_comparator_grid(cell.netlist);

  // Good-signature envelope over process / supply / temperature; one
  // counter-based RNG stream per Monte-Carlo sample keeps the
  // population identical at any thread count.
  const auto layout = comparator_measurement_layout();
  spice::ProcessSpread spread;
  const util::Rng master(config.seed ^ 0xc0ffee);
  const std::vector<std::string> supplies = {"VDDA", "VDDD", "VBN_SRC",
                                             "VBC_SRC"};
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist lo_bench = spice::perturb(
            instantiate_comparator_bench(cell.netlist, kDecisionGrid.front()),
            spread, env, supplies, rng);
        const Netlist hi_bench = spice::perturb(
            instantiate_comparator_bench(cell.netlist, kDecisionGrid.back()),
            spread, env, supplies, rng);
        try {
          const ComparatorRun lo = run_comparator(lo_bench);
          const ComparatorRun hi = run_comparator(hi_bench);
          return comparator_measurements(lo, hi);
        } catch (const util::ConvergenceError&) {
          return std::nullopt;  // drop this Monte-Carlo sample
        }
      });
  macro::BandPolicy comparator_policy = config.band_policy;
  // IVdd and the analog/reference input currents are chip-level
  // measurements shared by all 256 comparator instances; the fault-free
  // spread one faulty instance must escape scales accordingly. IDDQ is
  // deliberately NOT diluted: the digital part's quiescent current is
  // near zero no matter how many instances (the paper's key insight).
  comparator_policy.ivdd_dilution *= static_cast<double>(cell.instance_count);
  comparator_policy.iinput_dilution *=
      static_cast<double>(cell.instance_count);
  auto envelope = macro::build_envelope(layout, samples, comparator_policy);

  return ComparatorEvalContext{std::move(cell), nominal, std::move(envelope)};
}

}  // namespace

macro::MacroContribution MacroCampaignResult::contribution(
    bool non_catastrophic) const {
  macro::MacroContribution c;
  c.name = macro_name;
  c.cell_area = cell_area;
  c.instance_count = instance_count;
  for (const auto& outcome :
       non_catastrophic ? noncatastrophic : catastrophic)
    c.outcomes.push_back({outcome.detection,
                          static_cast<double>(outcome.cls.count),
                          outcome.status == EvalStatus::kUnresolved});
  return c;
}

std::vector<double> MacroCampaignResult::voltage_signature_fractions(
    bool non_catastrophic) const {
  std::vector<double> fractions(macro::kVoltageSignatureCount, 0.0);
  double total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    if (o.status != EvalStatus::kOk) continue;  // no trustworthy signature
    fractions[static_cast<std::size_t>(o.voltage)] +=
        static_cast<double>(o.cls.count);
    total += static_cast<double>(o.cls.count);
  }
  if (total > 0.0)
    for (auto& f : fractions) f /= total;
  return fractions;
}

std::vector<double> MacroCampaignResult::current_signature_fractions(
    bool non_catastrophic) const {
  std::vector<double> fractions(4, 0.0);
  double total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    if (o.status != EvalStatus::kOk) continue;  // no trustworthy signature
    const auto w = static_cast<double>(o.cls.count);
    if (o.current.ivdd) fractions[0] += w;
    if (o.current.iddq) fractions[1] += w;
    if (o.current.iinput) fractions[2] += w;
    if (!o.current.any()) fractions[3] += w;
    total += w;
  }
  if (total > 0.0)
    for (auto& f : fractions) f /= total;
  return fractions;
}

double MacroCampaignResult::coverage(bool non_catastrophic) const {
  double detected = 0.0, total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    const auto w = static_cast<double>(o.cls.count);
    if (o.status == EvalStatus::kOk && o.detection.detected()) detected += w;
    total += w;
  }
  return total > 0.0 ? detected / total : 0.0;
}

double MacroCampaignResult::current_coverage(bool non_catastrophic) const {
  double detected = 0.0, total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    const auto w = static_cast<double>(o.cls.count);
    if (o.status == EvalStatus::kOk && o.detection.current_detected())
      detected += w;
    total += w;
  }
  return total > 0.0 ? detected / total : 0.0;
}

double MacroCampaignResult::unresolved_weight(bool non_catastrophic) const {
  double unresolved = 0.0, total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    const auto w = static_cast<double>(o.cls.count);
    if (o.status == EvalStatus::kUnresolved) unresolved += w;
    total += w;
  }
  return total > 0.0 ? unresolved / total : 0.0;
}

std::size_t MacroCampaignResult::unresolved_classes() const {
  std::size_t n = 0;
  for (const auto& o : catastrophic)
    if (o.status == EvalStatus::kUnresolved) ++n;
  for (const auto& o : noncatastrophic)
    if (o.status == EvalStatus::kUnresolved) ++n;
  return n;
}

// ---------------------------------------------------------------------
// Comparator.

MacroCampaignResult run_comparator_campaign(const CampaignConfig& config,
                                            CampaignJournal* journal) {
  const ComparatorEvalContext context = make_comparator_eval_context(config);
  const macro::MacroCell& cell = context.cell;
  MacroCampaignResult result;
  result.macro_name = cell.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;
  result.defects = sprinkle(cell, config, 1);
  if (journal != nullptr) journal->record_macro(result);

  auto evaluate = [&](const Netlist& faulty_macro,
                      const fault::CircuitFault&) {
    return context.evaluate(faulty_macro);
  };

  const auto classes = truncated_classes(result.defects, config);
  const FaultModelOptions model_opt = model_options(config, "vdda");
  PrecomputedEvals precomputed;
  if (config.batch != 1) {
    precomputed = batch_prepass(
        result.macro_name, cell.netlist, classes, model_opt, config, journal,
        comparator_tran_options(),
        [](const Netlist& faulty, const fault::CircuitFault&, std::size_t g) {
          return instantiate_comparator_bench(faulty, kDecisionGrid[g]);
        },
        [](const spice::TranResult& r, const fault::CircuitFault&) {
          return extract_comparator_run(r);
        },
        [&](const std::array<ComparatorRun, 4>& runs,
            const fault::CircuitFault&) { return context.evaluate_runs(runs); },
        result);
  }
  evaluate_classes(result.macro_name, cell.netlist, classes, model_opt, config,
                   journal, evaluate, result.catastrophic,
                   result.noncatastrophic,
                   config.batch != 1 ? &precomputed : nullptr);
  return result;
}

// ---------------------------------------------------------------------
// Ladder.

MacroCampaignResult run_ladder_campaign(const CampaignConfig& config,
                                        CampaignJournal* journal) {
  const macro::MacroCell cell = build_ladder_macro();
  MacroCampaignResult result;
  result.macro_name = cell.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;
  result.defects = sprinkle(cell, config, 2);
  if (journal != nullptr) journal->record_macro(result);

  // Golden solver state, hoisted out of the per-class loop and shared
  // read-only by the envelope and fault-evaluation workers.
  const LadderContext context =
      make_ladder_context(cell.netlist, config.solver);
  const LadderSolution nominal = solve_ladder(cell.netlist, &context);

  macro::MeasurementLayout layout;
  layout.add("iref_p", macro::MeasurementKind::kIinput);
  layout.add("iref_m", macro::MeasurementKind::kIinput);
  spice::ProcessSpread spread;
  // The reference string is built in a precision poly module whose sheet
  // resistance and temperature coefficient are controlled far more
  // tightly than generic poly; the resulting narrow reference-current
  // band is what makes nearly every ladder fault current-detectable
  // (paper: 99.8%).
  spread.res_sigma_rel_global = 0.015;
  spread.res_tc = 1e-4;
  const util::Rng master(config.seed ^ 0x1adde4);
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist perturbed =
            spice::perturb(cell.netlist, spread, env, {}, rng);
        const auto sol = solve_ladder(perturbed, &context);
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.iref_p, sol.iref_m};
      });
  const auto envelope =
      macro::build_envelope(layout, samples, config.band_policy);

  auto evaluate = [&](const Netlist& faulty_macro,
                      const fault::CircuitFault&) {
    FaultOutcome outcome;
    const auto sol = solve_ladder(faulty_macro, &context);
    if (!sol.converged) {
      outcome.voltage = VoltageSignature::kOutputStuckAt;
      outcome.current.iinput = true;  // reference current grossly abnormal
      outcome.detection = make_outcome(outcome.voltage, outcome.current);
      return outcome;
    }
    // Propagate the faulty tap vector through the behavioral converter.
    const FlashAdcModel adc(sol.taps);
    const bool missing = has_missing_code(adc);
    // Tap errors below one LSB leave the codes intact but may still be a
    // measurable offset; classify by the worst tap deviation.
    double worst = 0.0;
    for (int i = 0; i < kLevels; ++i)
      worst = std::max(worst, std::fabs(sol.taps[static_cast<std::size_t>(i)] -
                                        nominal.taps[static_cast<std::size_t>(
                                            i)]));
    if (missing)
      outcome.voltage = worst > 10 * lsb() ? VoltageSignature::kOutputStuckAt
                                           : VoltageSignature::kOffset;
    else
      outcome.voltage = worst > lsb() / 2 ? VoltageSignature::kMixed
                                          : VoltageSignature::kNoDeviation;
    outcome.current = envelope.classify({sol.iref_p, sol.iref_m});
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    outcome.detection.missing_code = missing;
    return outcome;
  };

  evaluate_classes(result.macro_name, cell.netlist,
                   truncated_classes(result.defects, config),
                   model_options(config, "vdda"), config, journal, evaluate,
                   result.catastrophic, result.noncatastrophic);
  return result;
}

// ---------------------------------------------------------------------
// Bias generator.

MacroCampaignResult run_biasgen_campaign(const CampaignConfig& config,
                                         CampaignJournal* journal) {
  const macro::MacroCell cell = build_biasgen_macro();
  MacroCampaignResult result;
  result.macro_name = cell.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;
  result.defects = sprinkle(cell, config, 3);
  if (journal != nullptr) journal->record_macro(result);

  const BiasgenContext context =
      make_biasgen_context(cell.netlist, config.solver);
  const BiasgenSolution nominal = solve_biasgen(cell.netlist, &context);

  macro::MeasurementLayout layout;
  layout.add("ivdd", macro::MeasurementKind::kIVdd);
  spice::ProcessSpread spread;
  const util::Rng master(config.seed ^ 0xb1a5);
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist perturbed =
            spice::perturb(cell.netlist, spread, env, {}, rng);
        const auto sol = solve_biasgen(perturbed, &context);
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.ivdd};
      });
  const auto envelope =
      macro::build_envelope(layout, samples, config.band_policy);

  auto evaluate = [&](const Netlist& faulty_macro,
                      const fault::CircuitFault&) {
    FaultOutcome outcome;
    const auto sol = solve_biasgen(faulty_macro, &context);
    if (!sol.converged) {
      outcome.voltage = VoltageSignature::kOutputStuckAt;
      outcome.current.ivdd = true;  // supply current grossly abnormal
      outcome.detection = make_outcome(outcome.voltage, outcome.current);
      return outcome;
    }
    const double dev = std::max(std::fabs(sol.vbn - nominal.vbn),
                                std::fabs(sol.vbc - nominal.vbc));
    // A grossly wrong bias starves / floods all comparator tails: the
    // converter produces stuck codes. Moderate shifts only degrade
    // dynamics (no missing code at the slow missing-code test).
    if (dev > 0.15)
      outcome.voltage = VoltageSignature::kOutputStuckAt;
    else if (dev > 0.03)
      outcome.voltage = VoltageSignature::kMixed;
    else
      outcome.voltage = VoltageSignature::kNoDeviation;
    outcome.current = envelope.classify({sol.ivdd});
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    return outcome;
  };

  evaluate_classes(result.macro_name, cell.netlist,
                   truncated_classes(result.defects, config),
                   model_options(config, "vdda"), config, journal, evaluate,
                   result.catastrophic, result.noncatastrophic);
  return result;
}

// ---------------------------------------------------------------------
// Clock generator.

MacroCampaignResult run_clockgen_campaign(const CampaignConfig& config,
                                          CampaignJournal* journal) {
  const macro::MacroCell cell = build_clockgen_macro();
  MacroCampaignResult result;
  result.macro_name = cell.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;
  result.defects = sprinkle(cell, config, 4);
  if (journal != nullptr) journal->record_macro(result);

  const ClockgenContext context =
      make_clockgen_context(cell.netlist, config.solver);
  const ClockgenSolution nominal = solve_clockgen(cell.netlist, &context);

  macro::MeasurementLayout layout;
  layout.add("iddq_low", macro::MeasurementKind::kIddq);
  layout.add("iddq_high", macro::MeasurementKind::kIddq);
  layout.add("iclk_low", macro::MeasurementKind::kIinput);
  layout.add("iclk_high", macro::MeasurementKind::kIinput);
  spice::ProcessSpread spread;
  const util::Rng master(config.seed ^ 0xc10c);
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist perturbed =
            spice::perturb(cell.netlist, spread, env, {"VDDD"}, rng);
        const auto sol = solve_clockgen(perturbed, &context);
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.iddq_low, sol.iddq_high, sol.iclk_low,
                                   sol.iclk_high};
      });
  const auto envelope =
      macro::build_envelope(layout, samples, config.band_policy);

  auto evaluate = [&](const Netlist& faulty_macro,
                      const fault::CircuitFault&) {
    FaultOutcome outcome;
    const auto sol = solve_clockgen(faulty_macro, &context);
    if (!sol.converged) {
      outcome.voltage = VoltageSignature::kOutputStuckAt;
      outcome.current.iddq = true;  // digital supply grossly abnormal
      outcome.detection = make_outcome(outcome.voltage, outcome.current);
      return outcome;
    }
    double worst = 0.0;
    bool logic_broken = false;
    for (int i = 0; i < 3; ++i) {
      const double dl = std::fabs(sol.out_low[i] - nominal.out_low[i]);
      const double dh = std::fabs(sol.out_high[i] - nominal.out_high[i]);
      worst = std::max({worst, dl, dh});
      const bool flip_low = (sol.out_low[i] > kVddd / 2) !=
                            (nominal.out_low[i] > kVddd / 2);
      const bool flip_high = (sol.out_high[i] > kVddd / 2) !=
                             (nominal.out_high[i] > kVddd / 2);
      logic_broken = logic_broken || flip_low || flip_high;
    }
    if (logic_broken)
      outcome.voltage = VoltageSignature::kOutputStuckAt;  // clocks dead
    else if (worst > 0.05)
      outcome.voltage = VoltageSignature::kClockValue;
    else
      outcome.voltage = VoltageSignature::kNoDeviation;
    outcome.current = envelope.classify(
        {sol.iddq_low, sol.iddq_high, sol.iclk_low, sol.iclk_high});
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    return outcome;
  };

  evaluate_classes(result.macro_name, cell.netlist,
                   truncated_classes(result.defects, config),
                   model_options(config, "vddd"), config, journal, evaluate,
                   result.catastrophic, result.noncatastrophic);
  return result;
}

// ---------------------------------------------------------------------
// Decoder.

MacroCampaignResult run_decoder_campaign(const CampaignConfig& config,
                                         CampaignJournal* journal) {
  const macro::MacroCell cell = build_decoder_macro();
  MacroCampaignResult result;
  result.macro_name = cell.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;
  result.defects = sprinkle(cell, config, 5);
  if (journal != nullptr) journal->record_macro(result);

  const DecoderContext context =
      make_decoder_context(cell.netlist, config.solver);

  macro::MeasurementLayout layout;
  for (int v = 0; v <= kDecoderSliceInputs; ++v)
    layout.add("iddq_v" + std::to_string(v), macro::MeasurementKind::kIddq);
  spice::ProcessSpread spread;
  const util::Rng master(config.seed ^ 0xdec0de);
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist perturbed =
            spice::perturb(cell.netlist, spread, env, {"VDDD"}, rng);
        const auto sol = solve_decoder(perturbed, &context);
        if (!sol.converged) return std::nullopt;
        return std::vector<double>{sol.iddq.begin(), sol.iddq.end()};
      });
  const auto envelope =
      macro::build_envelope(layout, samples, config.band_policy);

  auto evaluate = [&](const Netlist& faulty_macro,
                      const fault::CircuitFault&) {
    FaultOutcome outcome;
    const auto sol = solve_decoder(faulty_macro, &context);
    if (!sol.converged) {
      outcome.voltage = VoltageSignature::kOutputStuckAt;
      outcome.current.iddq = true;  // digital supply grossly abnormal
      outcome.detection = make_outcome(outcome.voltage, outcome.current);
      return outcome;
    }
    bool wrong = false;
    for (int v = 0; v <= kDecoderSliceInputs && !wrong; ++v)
      for (int r = 0; r < 4 && !wrong; ++r)
        wrong = (sol.rows[static_cast<std::size_t>(v)]
                         [static_cast<std::size_t>(r)] > kVddd / 2) !=
                decoder_row_expected(v, r);
    outcome.voltage = wrong ? VoltageSignature::kOutputStuckAt
                            : VoltageSignature::kNoDeviation;
    outcome.current =
        envelope.classify({sol.iddq.begin(), sol.iddq.end()});
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    return outcome;
  };

  evaluate_classes(result.macro_name, cell.netlist,
                   truncated_classes(result.defects, config),
                   model_options(config, "vddd"), config, journal, evaluate,
                   result.catastrophic, result.noncatastrophic);
  return result;
}

// ---------------------------------------------------------------------
// Flat comparator bank.

namespace {

BankOptions bank_options_of(const CampaignConfig& config) {
  BankOptions opt;
  opt.size = config.bank_size;
  opt.dft = config.dft;
  opt.solver = config.solver;
  return opt;
}

}  // namespace

MacroCampaignResult run_bank_campaign(const CampaignConfig& config,
                                      CampaignJournal* journal) {
  const BankOptions bank_opt = bank_options_of(config);
  const macro::MacroCell cell = build_bank_macro(bank_opt);
  MacroCampaignResult result;
  result.macro_name = cell.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;
  result.defects = sprinkle(cell, config, 6);
  if (journal != nullptr) journal->record_macro(result);

  // Fault-free reference runs, observed at the middle slice (its tap
  // sits at mid-scale like the per-comparator bench's reference). The
  // fault-free decision pattern and the shared clock levels are
  // slice-independent by construction, so this one grid is the nominal
  // for every observation slice.
  const int mid_slice = bank_opt.size / 2;
  const auto nominal = simulate_bank_grid(cell.netlist, bank_opt, mid_slice);

  // Good-signature envelope: whole-column currents over the same
  // process / supply / temperature population as the per-comparator
  // campaign. Measurement layout is shared with the comparator (the
  // run records are field-identical).
  const auto layout = comparator_measurement_layout();
  spice::ProcessSpread spread;
  const util::Rng master(config.seed ^ 0xba4c);
  const std::vector<std::string> supplies = {"VDDA", "VDDD", "VBN_SRC",
                                             "VBC_SRC"};
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist lo_bench = spice::perturb(
            instantiate_bank_bench(cell.netlist, bank_opt, mid_slice,
                                   kDecisionGrid.front()),
            spread, env, supplies, rng);
        const Netlist hi_bench = spice::perturb(
            instantiate_bank_bench(cell.netlist, bank_opt, mid_slice,
                                   kDecisionGrid.back()),
            spread, env, supplies, rng);
        try {
          const ComparatorRun lo = run_bank_bench(lo_bench, bank_opt,
                                                  mid_slice);
          const ComparatorRun hi = run_bank_bench(hi_bench, bank_opt,
                                                  mid_slice);
          return comparator_measurements(lo, hi);
        } catch (const util::ConvergenceError&) {
          return std::nullopt;  // drop this Monte-Carlo sample
        }
      });
  macro::BandPolicy bank_policy = config.band_policy;
  // N slices already sum inside the column measurement; the remaining
  // chip-level dilution is the kLevels/N bank instances, so the total
  // matches the per-comparator campaign's 256-instance dilution.
  bank_policy.ivdd_dilution *= static_cast<double>(cell.instance_count);
  bank_policy.iinput_dilution *= static_cast<double>(cell.instance_count);
  const auto envelope = macro::build_envelope(layout, samples, bank_policy);

  // Classification from the four grid runs; shared by the scalar
  // evaluation and the batched prepass. The nominal grid is
  // slice-independent by construction, so it applies to whichever
  // slice the fault is observed at.
  auto classify_runs = [&](const std::array<ComparatorRun, 4>& runs,
                           const fault::CircuitFault&) {
    FaultOutcome outcome;
    outcome.voltage = classify_comparator(runs, nominal);
    if (runs.front().converged && runs.back().converged) {
      outcome.current = envelope.classify(
          comparator_measurements(runs.front(), runs.back()));
    } else {
      // No valid operating point: supply current grossly abnormal.
      outcome.current.ivdd = true;
    }
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    return outcome;
  };

  auto evaluate = [&](const Netlist& faulty_macro,
                      const fault::CircuitFault& representative) {
    // Observe the slice the fault touches (shared faults at mid-scale).
    const int slice = bank_observed_slice(bank_opt, representative);
    const auto runs = simulate_bank_grid(faulty_macro, bank_opt, slice);
    return classify_runs(runs, representative);
  };

  const auto classes = truncated_classes(result.defects, config);
  const FaultModelOptions model_opt = model_options(config, "vdda");
  PrecomputedEvals precomputed;
  if (config.batch != 1) {
    precomputed = batch_prepass(
        result.macro_name, cell.netlist, classes, model_opt, config, journal,
        bank_tran_options(),
        [&](const Netlist& faulty, const fault::CircuitFault& rep,
            std::size_t g) {
          return instantiate_bank_bench(faulty, bank_opt,
                                        bank_observed_slice(bank_opt, rep),
                                        kDecisionGrid[g]);
        },
        [&](const spice::TranResult& r, const fault::CircuitFault& rep) {
          return extract_bank_run(r, bank_opt,
                                  bank_observed_slice(bank_opt, rep));
        },
        classify_runs, result);
  }
  evaluate_classes(result.macro_name, cell.netlist, classes, model_opt, config,
                   journal, evaluate, result.catastrophic,
                   result.noncatastrophic,
                   config.batch != 1 ? &precomputed : nullptr);
  return result;
}

macro::EquivalenceReport compare_bank_decomposition(
    const CampaignConfig& config, const MacroCampaignResult& bank) {
  const BankOptions bank_opt = bank_options_of(config);
  const macro::SliceMapper mapper = bank_slice_mapper(bank_opt);
  const ComparatorEvalContext context = make_comparator_eval_context(config);
  const FaultModelOptions model_opt = model_options(config, "vdda");

  // One entry per catastrophic bank class: project it onto the
  // single-comparator namespace; mapped classes are re-evaluated there
  // with the campaign's own variant loop / worst-case keep.
  const auto& outcomes = bank.catastrophic;
  auto entries = util::parallel_map(outcomes.size(), [&](std::size_t i) {
    const FaultOutcome& o = outcomes[i];
    macro::EquivalenceEntry e;
    e.index = i;
    e.weight = static_cast<double>(o.cls.count);
    e.composite_key = o.cls.representative.key();
    e.composite_voltage = o.voltage;
    e.composite_detection = o.detection;
    e.composite_unresolved = o.status == EvalStatus::kUnresolved;
    const macro::ProjectedFault projected =
        macro::project_fault(o.cls.representative, mapper);
    e.locality = projected.locality;
    e.slice = projected.slice;
    if (!projected.fault) return e;
    e.projected_key = projected.fault->key();
    try {
      std::optional<FaultOutcome> worst;
      const int variants = fault::model_variant_count(*projected.fault);
      for (int variant = 0; variant < variants; ++variant) {
        Netlist faulty = fault::apply_fault(
            context.cell.netlist, *projected.fault, model_opt, variant, false);
        FaultOutcome outcome = context.evaluate(faulty);
        if (!worst ||
            detectability_score(outcome) < detectability_score(*worst))
          worst = std::move(outcome);
      }
      if (worst) {
        e.projected_voltage = worst->voltage;
        e.projected_detection = worst->detection;
      } else {
        e.projected_unresolved = true;
      }
    } catch (const std::exception&) {
      // The projection is structurally valid but the comparator-side
      // model rejected it (e.g. hardware mismatch): carry it as
      // unresolved on the projected side rather than aborting the diff.
      e.projected_unresolved = true;
    }
    return e;
  });
  return macro::compile_equivalence(std::move(entries));
}

// ---------------------------------------------------------------------
// Full chip.

namespace {

ChipOptions chip_options_of(const CampaignConfig& config) {
  ChipOptions opt;
  opt.slices = config.chip_slices;
  opt.dft = config.dft;
  opt.solver = config.solver;
  return opt;
}

}  // namespace

MacroCampaignResult run_chip_campaign(const CampaignConfig& config,
                                      CampaignJournal* journal) {
  const ChipOptions chip_opt = chip_options_of(config);
  const macro::MacroCell cell = build_chip_macro(chip_opt);
  MacroCampaignResult result;
  result.macro_name = cell.name;
  result.cell_area = cell.cell_area();
  result.instance_count = cell.instance_count;
  result.defects = sprinkle(cell, config, 7);
  if (journal != nullptr) journal->record_macro(result);

  // Fault-free reference runs, observed at the middle slice (same
  // slice-independence argument as the bank: the decision pattern and
  // clock levels are common to every observation slice).
  const int mid_slice = chip_opt.slices / 2;
  const auto nominal = simulate_chip_grid(cell.netlist, chip_opt, mid_slice);

  // Good-signature envelope. Only the two chip supplies are perturbed:
  // the bias and clock sources of the bank bench are on-chip hardware
  // here, inside the netlist being measured.
  const auto layout = comparator_measurement_layout();
  spice::ProcessSpread spread;
  const util::Rng master(config.seed ^ 0xc41b);
  const std::vector<std::string> supplies = {"VDDA", "VDDD"};
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        const Netlist lo_bench = spice::perturb(
            instantiate_chip_bench(cell.netlist, chip_opt, mid_slice,
                                   kDecisionGrid.front()),
            spread, env, supplies, rng);
        const Netlist hi_bench = spice::perturb(
            instantiate_chip_bench(cell.netlist, chip_opt, mid_slice,
                                   kDecisionGrid.back()),
            spread, env, supplies, rng);
        try {
          const ComparatorRun lo = run_chip_bench(lo_bench, chip_opt,
                                                  mid_slice);
          const ComparatorRun hi = run_chip_bench(hi_bench, chip_opt,
                                                  mid_slice);
          return comparator_measurements(lo, hi);
        } catch (const util::ConvergenceError&) {
          return std::nullopt;  // drop this Monte-Carlo sample
        }
      });
  // The chip is the whole converter (instance_count 1): the measured
  // currents already carry the full-chip dilution, no extra scaling.
  const auto envelope =
      macro::build_envelope(layout, samples, config.band_policy);

  auto classify_runs = [&](const std::array<ComparatorRun, 4>& runs,
                           const fault::CircuitFault&) {
    FaultOutcome outcome;
    outcome.voltage = classify_comparator(runs, nominal);
    if (runs.front().converged && runs.back().converged) {
      outcome.current = envelope.classify(
          comparator_measurements(runs.front(), runs.back()));
    } else {
      outcome.current.ivdd = true;  // no valid operating point
    }
    outcome.detection = make_outcome(outcome.voltage, outcome.current);
    return outcome;
  };

  auto evaluate = [&](const Netlist& faulty_macro,
                      const fault::CircuitFault& representative) {
    const int slice = chip_observed_slice(chip_opt, representative);
    const auto runs = simulate_chip_grid(faulty_macro, chip_opt, slice);
    return classify_runs(runs, representative);
  };

  const auto classes = truncated_classes(result.defects, config);
  const FaultModelOptions model_opt = model_options(config, "vdda");
  PrecomputedEvals precomputed;
  if (config.batch != 1) {
    precomputed = batch_prepass(
        result.macro_name, cell.netlist, classes, model_opt, config, journal,
        chip_tran_options(),
        [&](const Netlist& faulty, const fault::CircuitFault& rep,
            std::size_t g) {
          return instantiate_chip_bench(faulty, chip_opt,
                                        chip_observed_slice(chip_opt, rep),
                                        kDecisionGrid[g]);
        },
        [&](const spice::TranResult& r, const fault::CircuitFault& rep) {
          return extract_chip_run(r, chip_opt,
                                  chip_observed_slice(chip_opt, rep));
        },
        classify_runs, result);
  }
  evaluate_classes(result.macro_name, cell.netlist, classes, model_opt, config,
                   journal, evaluate, result.catastrophic,
                   result.noncatastrophic,
                   config.batch != 1 ? &precomputed : nullptr);
  return result;
}

macro::EquivalenceReport compare_chip_decomposition(
    const CampaignConfig& config, const MacroCampaignResult& chip) {
  const ChipOptions chip_opt = chip_options_of(config);
  const macro::SliceMapper mapper = chip_slice_mapper(chip_opt);
  const ComparatorEvalContext context = make_comparator_eval_context(config);
  const FaultModelOptions model_opt = model_options(config, "vdda");

  // Identical projection/re-evaluation loop to the bank diff; the
  // difference is entirely in what project_fault can map. Comparator
  // column hardware projects; decoder / clockgen / biasgen hardware,
  // the digital nets and every interface-straddling bridge stay
  // unmappable and land in their own equivalence bucket.
  const auto& outcomes = chip.catastrophic;
  auto entries = util::parallel_map(outcomes.size(), [&](std::size_t i) {
    const FaultOutcome& o = outcomes[i];
    macro::EquivalenceEntry e;
    e.index = i;
    e.weight = static_cast<double>(o.cls.count);
    e.composite_key = o.cls.representative.key();
    e.composite_voltage = o.voltage;
    e.composite_detection = o.detection;
    e.composite_unresolved = o.status == EvalStatus::kUnresolved;
    const macro::ProjectedFault projected =
        macro::project_fault(o.cls.representative, mapper);
    e.locality = projected.locality;
    e.slice = projected.slice;
    if (!projected.fault) return e;
    e.projected_key = projected.fault->key();
    try {
      std::optional<FaultOutcome> worst;
      const int variants = fault::model_variant_count(*projected.fault);
      for (int variant = 0; variant < variants; ++variant) {
        Netlist faulty = fault::apply_fault(
            context.cell.netlist, *projected.fault, model_opt, variant, false);
        FaultOutcome outcome = context.evaluate(faulty);
        if (!worst ||
            detectability_score(outcome) < detectability_score(*worst))
          worst = std::move(outcome);
      }
      if (worst) {
        e.projected_voltage = worst->voltage;
        e.projected_detection = worst->detection;
      } else {
        e.projected_unresolved = true;
      }
    } catch (const std::exception&) {
      e.projected_unresolved = true;
    }
    return e;
  });
  return macro::compile_equivalence(std::move(entries));
}

// ---------------------------------------------------------------------
// Global compilation.

GlobalResult compile_global(std::vector<MacroCampaignResult> macros) {
  GlobalResult global;
  std::vector<macro::MacroContribution> cat, noncat;
  for (const auto& m : macros) {
    cat.push_back(m.contribution(false));
    noncat.push_back(m.contribution(true));
  }
  global.venn_catastrophic = macro::compile_global(cat);
  global.matrix_catastrophic = macro::compile_global_matrix(cat);
  // Macros without non-catastrophic variants contribute nothing there.
  std::erase_if(noncat, [](const macro::MacroContribution& c) {
    return c.outcomes.empty();
  });
  if (!noncat.empty()) {
    global.venn_noncatastrophic = macro::compile_global(noncat);
    global.matrix_noncatastrophic = macro::compile_global_matrix(noncat);
  }
  global.macros = std::move(macros);
  return global;
}

GlobalResult run_full_campaign(const CampaignConfig& config) {
  // The five macro campaigns are fully independent until the global
  // compilation (paper fig. 1), so they fan out across the pool; each
  // one's inner loops keep parallelizing on whatever threads are free
  // (the pool's caller-participates design makes nesting safe).
  std::unique_ptr<CampaignJournal> journal;
  if (!config.resilience.journal_path.empty())
    journal = std::make_unique<CampaignJournal>(config);
  using Runner = MacroCampaignResult (*)(const CampaignConfig&,
                                         CampaignJournal*);
  static constexpr Runner kRunners[] = {
      run_comparator_campaign, run_ladder_campaign, run_biasgen_campaign,
      run_clockgen_campaign, run_decoder_campaign};
  auto macros = util::parallel_map(std::size(kRunners), [&](std::size_t m) {
    return kRunners[m](config, journal.get());
  });
  if (journal) journal->close();
  return compile_global(std::move(macros));
}

GlobalResult run_campaign(const CampaignConfig& config) {
  if (config.macro_selection == "all" || config.macro_selection.empty())
    return run_full_campaign(config);
  using Runner = MacroCampaignResult (*)(const CampaignConfig&,
                                         CampaignJournal*);
  Runner runner = nullptr;
  if (config.macro_selection == "comparator")
    runner = run_comparator_campaign;
  else if (config.macro_selection == "ladder")
    runner = run_ladder_campaign;
  else if (config.macro_selection == "biasgen")
    runner = run_biasgen_campaign;
  else if (config.macro_selection == "clockgen")
    runner = run_clockgen_campaign;
  else if (config.macro_selection == "decoder")
    runner = run_decoder_campaign;
  else if (config.macro_selection == "bank")
    runner = run_bank_campaign;
  else if (config.macro_selection == "chip")
    runner = run_chip_campaign;
  else
    throw util::InvalidInputError("unknown macro selection: " +
                                  config.macro_selection);
  std::unique_ptr<CampaignJournal> journal;
  if (!config.resilience.journal_path.empty())
    journal = std::make_unique<CampaignJournal>(config);
  std::vector<MacroCampaignResult> macros;
  macros.push_back(runner(config, journal.get()));
  if (journal) journal->close();
  return compile_global(std::move(macros));
}

}  // namespace dot::flashadc
