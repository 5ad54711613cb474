#include "flashadc/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>

#include "flashadc/bank.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/chip.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/dc_bench.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/journal.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "spice/montecarlo.hpp"
#include "spice/resilience.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/shutdown.hpp"

namespace dot::flashadc {

using fault::CircuitFault;
using fault::FaultClass;
using fault::FaultModelOptions;
using macro::CurrentSignature;
using macro::GoodEnvelope;
using macro::VoltageSignature;
using spice::Netlist;

namespace {

/// Detection mechanisms of a signature pair: only stuck-at and >8 mV
/// offsets propagate to missing codes through the edge decoder (paper
/// 3.2, validated against the behavioral model in the test suite).
macro::DetectionOutcome make_outcome(VoltageSignature voltage,
                                     const CurrentSignature& current) {
  return {voltage == VoltageSignature::kOutputStuckAt ||
              voltage == VoltageSignature::kOffset,
          current.ivdd, current.iddq, current.iinput};
}

/// Catastrophic / non-catastrophic outcome pair of one fault class,
/// with the solver phase times of its transients (zero unless
/// CampaignConfig::collect_phase_times).
struct ClassEval {
  std::optional<FaultOutcome> cat;
  std::optional<FaultOutcome> noncat;
  spice::PhaseTimes phases;
};

/// The job enumeration of one fault: fn(noncat, variant) over the
/// catastrophic pass, then the non-catastrophic one when wanted and
/// supported, each over every model variant.
template <typename Fn>
void for_each_variant(const CircuitFault& fault, bool with_noncat, Fn&& fn) {
  const int variants = fault::model_variant_count(fault);
  for (const bool noncat : {false, true}) {
    if (noncat && (!with_noncat || !fault::supports_noncatastrophic(fault)))
      continue;
    for (int variant = 0; variant < variants; ++variant) fn(noncat, variant);
  }
}

/// One class's outcome pair with the worst-variant reduction: each pass
/// keeps its hardest-to-detect variant, the one with the fewest
/// detection mechanisms, as the paper keeps the worst-case gate-oxide
/// pinhole variant (ties keep the earlier variant). outcome_of(noncat,
/// variant) evaluates one form of the fault.
template <typename OutcomeOf>
ClassEval evaluate_class(const FaultClass& cls, bool with_noncat,
                         OutcomeOf&& outcome_of) {
  auto detectability_score = [](const FaultOutcome& o) {
    return int{o.detection.missing_code} + int{o.detection.ivdd} +
           int{o.detection.iddq} + int{o.detection.iinput};
  };
  ClassEval eval;
  for_each_variant(cls.representative, with_noncat, [&](bool noncat, int v) {
    FaultOutcome outcome = outcome_of(noncat, v);
    outcome.cls = cls;
    outcome.non_catastrophic = noncat;
    std::optional<FaultOutcome>& worst = noncat ? eval.noncat : eval.cat;
    if (!worst || detectability_score(outcome) < detectability_score(*worst))
      worst = std::move(outcome);
  });
  return eval;
}

/// A macro ready for its class loop: the cell with its golden state,
/// the netlists each Monte-Carlo envelope sample perturbs, `measure`
/// for the envelope (nullopt drops a sample without operating point)
/// and `evaluate` for the verdict on a faulty macro netlist (adding the
/// phase times of its transients to the optional sink).
struct PreparedMacro {
  PreparedMacro(macro::MacroCell c, macro::MeasurementLayout l)
      : cell(std::move(c)), layout(std::move(l)) {}
  macro::MacroCell cell;
  macro::MeasurementLayout layout;
  std::vector<Netlist> envelope_benches;
  std::function<std::optional<std::vector<double>>(const std::vector<Netlist>&)>
      measure;
  std::function<FaultOutcome(const Netlist&, const CircuitFault&,
                             const GoodEnvelope&, spice::PhaseTimes*)>
      evaluate;
};

/// Verdict from the four grid runs. The fault-free grid is
/// slice-independent by construction: it applies at any observed slice.
FaultOutcome classify_runs(const std::array<ComparatorRun, 4>& runs,
                           const std::array<ComparatorRun, 4>& nominal,
                           const GoodEnvelope& envelope) {
  FaultOutcome outcome;
  outcome.voltage = classify_comparator(runs, nominal);
  if (runs.front().converged && runs.back().converged)
    outcome.current = envelope.classify(
        comparator_measurements(runs.front(), runs.back()));
  else  // No valid operating point (typically a hard supply short).
    outcome.current.ivdd = true;
  outcome.detection = make_outcome(outcome.voltage, outcome.current);
  return outcome;
}

/// A transient macro: the decision grid observed at the slice each
/// fault touches; golden runs and envelope at the bench's middle slice.
PreparedMacro prepare_transient(macro::MacroCell cell, DecisionGridBench grid,
                                const CampaignConfig& config) {
  grid.tran.solver = config.solver;
  grid.tran.collect_phase_times = config.collect_phase_times;
  auto b = std::make_shared<const DecisionGridBench>(std::move(grid));
  PreparedMacro m(std::move(cell), comparator_measurement_layout());
  const auto nominal = run_decision_grid(*b, m.cell.netlist, b->mid_slice);
  // The envelope measures the two outer grid runs.
  for (const double dv : {kDecisionGrid.front(), kDecisionGrid.back()})
    m.envelope_benches.push_back(
        b->instantiate(m.cell.netlist, b->mid_slice, dv));
  m.measure = [b](const std::vector<Netlist>& benches)
      -> std::optional<std::vector<double>> {
    auto run = [&](const Netlist& n) {
      return b->extract(spice::transient(n, b->tran), b->mid_slice);
    };
    try {
      return comparator_measurements(run(benches[0]), run(benches[1]));
    } catch (const util::ConvergenceError&) {
      return std::nullopt;
    }
  };
  m.evaluate = [b, nominal](const Netlist& faulty, const CircuitFault& rep,
                            const GoodEnvelope& envelope,
                            spice::PhaseTimes* phases) {
    return classify_runs(
        run_decision_grid(*b, faulty, b->observed_slice(rep), phases),
        nominal, envelope);
  };
  return m;
}

BankOptions bank_options_of(const CampaignConfig& c) {
  return {c.bank_size, c.dft, c.solver};
}

ChipOptions chip_options_of(const CampaignConfig& c) {
  return {c.chip_slices, c.dft};
}

/// A DC macro: one operating point per netlist, its currents checked
/// against the envelope and its voltages against the fault-free point;
/// a fault without an operating point reads as stuck-at with its
/// `unsolved` current grossly abnormal. The golden solver context is
/// shared read-only by the envelope and fault-evaluation workers.
template <typename Solution, typename Classify>
std::function<PreparedMacro(const CampaignConfig&)> dc_macro(
    macro::MacroCell (*build)(), DcBench (*bench)(),
    Solution (*solve)(const Netlist&, const DcContext*),
    macro::MeasurementLayout (*layout)(),
    std::vector<double> (*currents)(const Solution&), Classify classify,
    bool CurrentSignature::*unsolved) {
  return [=](const CampaignConfig& config) {
    PreparedMacro m(build(), layout());
    auto ctx = std::make_shared<const DcContext>(
        make_dc_context(bench(), m.cell.netlist, config.solver));
    const Solution nominal = solve(m.cell.netlist, ctx.get());
    m.envelope_benches = {m.cell.netlist};
    m.measure = [=](const std::vector<Netlist>& benches) {
      const Solution sol = solve(benches[0], ctx.get());
      return sol.converged ? std::optional{currents(sol)} : std::nullopt;
    };
    m.evaluate = [=](const Netlist& faulty, const CircuitFault&,
                     const GoodEnvelope& envelope, spice::PhaseTimes*) {
      FaultOutcome outcome;
      const Solution sol = solve(faulty, ctx.get());
      if (!sol.converged) {
        outcome.voltage = VoltageSignature::kOutputStuckAt;
        outcome.current.*unsolved = true;
      } else {
        outcome.voltage = classify(sol, nominal);
        outcome.current = envelope.classify(currents(sol));
      }
      outcome.detection = make_outcome(outcome.voltage, outcome.current);
      return outcome;
    };
    return m;
  };
}

/// One row of the campaign table: everything that differs between two
/// macro campaigns. run_macro_campaign is the skeleton that reads it.
struct MacroSpec {
  std::string name;
  std::uint64_t seed_offset;    ///< config.seed + offset seeds the sprinkle.
  std::uint64_t envelope_salt;  ///< config.seed ^ salt seeds the envelope.
  std::string vdd_net;          ///< Supply net of sprinkle and fault models.
  spice::ProcessSpread spread;  ///< Envelope process spread.
  std::vector<std::string> supplies;  ///< Sources the envelope perturbs.
  /// IVdd and input currents are chip-level measurements shared by
  /// every instance, so their spread scales with instance_count. IDDQ
  /// never is: the digital quiescent current stays near zero however
  /// many instances there are (the paper's key insight).
  bool dilute_currents;
  bool decomposed;  ///< Part of the paper's five-macro flow ("all").
  std::function<PreparedMacro(const CampaignConfig&)> prepare;
  /// Projection onto the single-comparator macro (flat columns only).
  macro::SliceMapper (*mapper)(const CampaignConfig&);
};

const std::vector<MacroSpec>& macro_table() {
  // The bench's analog supply, digital supply and bias sources.
  const std::vector<std::string> bench_sources = {"VDDA", "VDDD", "VBN_SRC",
                                                  "VBC_SRC"};
  // The reference string is precision poly, far tighter than generic
  // poly: its narrow current band makes nearly every ladder fault
  // current-detectable (paper: 99.8%).
  const spice::ProcessSpread tight_poly{.res_sigma_rel_global = 0.015,
                                        .res_tc = 1e-4};
  static const std::vector<MacroSpec> table = {
      {"comparator", 1, 0xc0ffee, "vdda", {}, bench_sources, true, true,
       [](const CampaignConfig& c) {
         return prepare_transient(build_comparator_macro(c.dft),
                                  comparator_grid_bench(), c);
       },
       nullptr},
      {"ladder", 2, 0x1adde4, "vdda", tight_poly, {}, false, true,
       dc_macro(build_ladder_macro, ladder_dc_bench, solve_ladder,
                ladder_measurement_layout, ladder_measurements,
                classify_ladder, &CurrentSignature::iinput),
       nullptr},
      {"biasgen", 3, 0xb1a5, "vdda", {}, {}, false, true,
       dc_macro(build_biasgen_macro, biasgen_dc_bench, solve_biasgen,
                biasgen_measurement_layout, biasgen_measurements,
                classify_biasgen, &CurrentSignature::ivdd),
       nullptr},
      {"clockgen", 4, 0xc10c, "vddd", {}, {}, false, true,
       dc_macro(build_clockgen_macro, clockgen_dc_bench, solve_clockgen,
                clockgen_measurement_layout, clockgen_measurements,
                classify_clockgen, &CurrentSignature::iddq),
       nullptr},
      {"decoder", 5, 0xdec0de, "vddd", {}, {}, false, true,
       dc_macro(build_decoder_macro, decoder_dc_bench, solve_decoder,
                decoder_measurement_layout, decoder_measurements,
                [](const DecoderSolution& s, const DecoderSolution&) {
                  return classify_decoder(s);
                },
                &CurrentSignature::iddq),
       nullptr},
      // N slices already sum inside the column measurement; what is
      // left to dilute is the kLevels/N bank instances.
      {"bank", 6, 0xba4c, "vdda", {}, bench_sources, true, false,
       [](const CampaignConfig& c) {
         const BankOptions o = bank_options_of(c);
         return prepare_transient(build_bank_macro(o), bank_grid_bench(o), c);
       },
       [](const CampaignConfig& c) {
         return bank_slice_mapper(bank_options_of(c));
       }},
      // Bias and clock sources are on-chip hardware here, so only the
      // chip supplies are perturbed; the chip is one instance.
      {"chip", 7, 0xc41b, "vdda", {}, {"VDDA", "VDDD"}, true, false,
       [](const CampaignConfig& c) {
         const ChipOptions o = chip_options_of(c);
         return prepare_transient(build_chip_macro(o), chip_grid_bench(o), c);
       },
       [](const CampaignConfig& c) {
         return chip_slice_mapper(chip_options_of(c));
       }},
  };
  return table;
}

const MacroSpec& spec_of(const std::string& name) {
  for (const MacroSpec& spec : macro_table())
    if (spec.name == name) return spec;
  throw util::InvalidInputError("unknown macro selection: " + name);
}

/// Good-signature envelope over process / supply / temperature; one
/// counter-based RNG stream per Monte-Carlo sample keeps the population
/// identical at any thread count.
GoodEnvelope build_envelope(const MacroSpec& spec, const PreparedMacro& m,
                            const CampaignConfig& config) {
  const util::Rng master(config.seed ^ spec.envelope_salt);
  const auto samples = macro::monte_carlo_samples(
      config.envelope_samples, master,
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spec.spread, rng);
        std::vector<Netlist> perturbed;
        for (const Netlist& bench : m.envelope_benches)
          perturbed.push_back(
              spice::perturb(bench, spec.spread, env, spec.supplies, rng));
        return m.measure(perturbed);
      });
  macro::BandPolicy policy = config.band_policy;
  if (spec.dilute_currents) {
    policy.ivdd_dilution *= static_cast<double>(m.cell.instance_count);
    policy.iinput_dilution *= static_cast<double>(m.cell.instance_count);
  }
  return macro::build_envelope(m.layout, samples, policy);
}

FaultModelOptions model_options(const CampaignConfig& config,
                                const MacroSpec& spec) {
  FaultModelOptions opt = config.fault_models;
  opt.vdd_net = spec.vdd_net;
  opt.new_device_model = nmos_model();
  return opt;
}

/// A macro campaign past its golden runs: the class loop over its
/// (possibly truncated) class list.
struct ClassLoop {
  const std::string& macro;
  const PreparedMacro& m;
  const GoodEnvelope& envelope;
  const std::vector<FaultClass>& classes;
  const FaultModelOptions& model_opt;
  const CampaignConfig& config;
  CampaignJournal* journal;

  /// Evaluation of class c under the resilience budget. Each attempt
  /// evaluates every variant inside an EvalScope with the configured
  /// wall-clock budget on aid rung `attempt - 1` and stamps each kept
  /// outcome with `attempt`; a failed attempt is retried one rung up,
  /// and a class that exhausts 1 + max_retries attempts is carried as a
  /// structured kUnresolved outcome -- its own coverage bucket, never
  /// silently detected or undetected.
  ClassEval evaluate_with_retries(std::size_t c) const {
    const CircuitFault& rep = classes[c].representative;
    const int attempts = 1 + std::max(0, config.resilience.max_retries);
    std::string failure;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      try {
        spice::EvalBudget budget;
        budget.timeout_ms = config.resilience.class_timeout_ms;
        budget.aid_level = attempt - 1;
        spice::EvalScope scope(macro, c, budget);
        spice::PhaseTimes phases;
        ClassEval eval = evaluate_class(
            classes[c], config.with_noncatastrophic, [&](bool nc, int v) {
              return m.evaluate(
                  fault::apply_fault(m.cell.netlist, rep, model_opt, v, nc),
                  rep, envelope, &phases);
            });
        eval.phases = phases;
        if (eval.cat) eval.cat->attempts = attempt;
        if (eval.noncat) eval.noncat->attempts = attempt;
        return eval;
      } catch (const util::ShardError&) {
        throw;  // infrastructure failure, not a circuit pathology
      } catch (const std::exception& e) {
        failure = e.what();
      }
    }
    ClassEval eval;
    FaultOutcome& o = eval.cat.emplace();
    o.cls = classes[c];
    o.status = EvalStatus::kUnresolved;
    o.attempts = attempts;
    o.failure = failure;
    if (config.with_noncatastrophic && fault::supports_noncatastrophic(rep)) {
      eval.noncat = eval.cat;
      eval.noncat->non_catastrophic = true;
    }
    return eval;
  }

  /// The class loop. Classes run in parallel and land in likelihood
  /// order, so the outcome vectors are bit-identical at any thread
  /// count.
  ///   * sharding -- this process evaluates class c iff
  ///     c % shard_count == shard_index; the union of all shards equals
  ///     the unsharded run bit-for-bit;
  ///   * resume -- journaled classes are restored, their abbreviated
  ///     representative rehydrated from the deterministic re-sprinkle;
  ///   * graceful shutdown -- classes not yet evaluated are skipped;
  ///     the caller marks the partial report `interrupted`.
  /// CampaignConfig::batch changes no scheduling: unless it is 1,
  /// `batch_evaluated` receives the number of classes this run
  /// evaluated (not restored) whose first attempt resolved.
  std::vector<ClassEval> evaluate(std::size_t& batch_evaluated) const {
    const ResilienceOptions& res = config.resilience;
    std::atomic<std::size_t> resolved{0};
    std::vector<ClassEval> evals =
        util::parallel_map(classes.size(), [&](std::size_t c) {
          ClassEval eval;
          if (c % res.shard_count != res.shard_index) return eval;
          if (const ClassRecord* record =
                  journal ? journal->completed(macro, c) : nullptr) {
            eval.cat = record->catastrophic;
            eval.noncat = record->noncatastrophic;
            if (eval.cat) eval.cat->cls = classes[c];
            if (eval.noncat) eval.noncat->cls = classes[c];
            return eval;
          }
          if (util::shutdown_requested()) return eval;
          eval = evaluate_with_retries(c);
          if (eval.cat->status == EvalStatus::kOk && eval.cat->attempts == 1)
            ++resolved;
          if (journal != nullptr)
            journal->record_class(macro, c, eval.cat, eval.noncat);
          return eval;
        });
    if (config.batch != 1) batch_evaluated = resolved;
    return evals;
  }
};

}  // namespace

std::vector<std::string> campaign_macros() {
  std::vector<std::string> names;
  for (const MacroSpec& spec : macro_table()) names.push_back(spec.name);
  return names;
}

std::string resolve_selection(const CampaignConfig& config) {
  const std::string& name = config.macro_selection;
  return name.empty() || name == "all" ? "all" : spec_of(name).name;
}

std::vector<std::string> expected_macros(const CampaignConfig& config) {
  const std::string selection = resolve_selection(config);
  if (selection != "all") return {selection};
  std::vector<std::string> names;
  for (const MacroSpec& spec : macro_table())
    if (spec.decomposed) names.push_back(spec.name);
  return names;
}

MacroCampaignResult run_macro_campaign(const CampaignConfig& config,
                                       const std::string& name,
                                       CampaignJournal* journal) {
  const ResilienceOptions& res = config.resilience;
  if (res.shard_count == 0 || res.shard_index >= res.shard_count)
    throw util::ShardError("shard index " + std::to_string(res.shard_index) +
                           " out of range for " +
                           std::to_string(res.shard_count) + " shards");
  const MacroSpec& spec = spec_of(name);
  const PreparedMacro m = spec.prepare(config);
  MacroCampaignResult result;
  result.macro_name = spec.name;
  result.cell_area = m.cell.cell_area();
  result.instance_count = m.cell.instance_count;
  result.defects = defect::run_campaign(
      m.cell.layout, {.statistics = config.statistics,
                      .defect_count = config.defect_count,
                      .seed = config.seed + spec.seed_offset,
                      .vdd_net = spec.vdd_net});
  if (journal != nullptr) journal->record_macro(result);

  const GoodEnvelope envelope = build_envelope(spec, m, config);
  std::vector<FaultClass> classes = result.defects.classes;
  if (config.max_classes > 0 && classes.size() > config.max_classes)
    classes.resize(config.max_classes);
  const FaultModelOptions model_opt = model_options(config, spec);
  const ClassLoop loop{spec.name, m,      envelope, classes,
                       model_opt, config, journal};
  // Phase times sum in class order.
  for (ClassEval& eval : loop.evaluate(result.batch_evaluated)) {
    result.phase_times += eval.phases;
    if (eval.cat) result.catastrophic.push_back(std::move(*eval.cat));
    if (eval.noncat) result.noncatastrophic.push_back(std::move(*eval.noncat));
  }
  return result;
}

macro::EquivalenceReport compare_decomposition(
    const CampaignConfig& config, const MacroCampaignResult& result) {
  const MacroSpec& spec = spec_of(result.macro_name);
  if (spec.mapper == nullptr)
    throw util::InvalidInputError("macro '" + spec.name +
                                  "' has no per-comparator decomposition");
  const macro::SliceMapper mapper = spec.mapper(config);
  const MacroSpec& sub_spec = spec_of("comparator");
  const PreparedMacro sub = sub_spec.prepare(config);
  const GoodEnvelope envelope = build_envelope(sub_spec, sub, config);
  const FaultModelOptions model_opt = model_options(config, sub_spec);

  // One entry per catastrophic class, projected onto the comparator;
  // mapped classes are re-evaluated there with the campaign's variant
  // loop and worst-case keep. What project_fault cannot map --
  // inter-slice bridges, tap and support-macro hardware -- lands in
  // its own equivalence bucket.
  const auto& outcomes = result.catastrophic;
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
    const CircuitFault& rep = *projected.fault;
    e.projected_key = rep.key();
    std::optional<FaultOutcome> worst;
    try {
      worst = evaluate_class({rep, o.cls.count}, false, [&](bool, int v) {
        const Netlist faulty =
            fault::apply_fault(sub.cell.netlist, rep, model_opt, v, false);
        return sub.evaluate(faulty, rep, envelope, nullptr);
      }).cat;
    } catch (const std::exception&) {
      // The projection is structurally valid but the comparator-side
      // model rejected it (e.g. hardware mismatch): carry it as
      // unresolved on the projected side rather than aborting the diff.
      worst.reset();
    }
    e.projected_unresolved = !worst;
    if (worst) {
      e.projected_voltage = worst->voltage;
      e.projected_detection = worst->detection;
    }
    return e;
  });
  return macro::compile_equivalence(std::move(entries));
}

GlobalResult run_full_campaign(CampaignConfig config) {
  config.macro_selection = "all";
  return run_campaign(config);
}

GlobalResult run_campaign(const CampaignConfig& config) {
  // The macro campaigns are independent until the global compilation
  // (paper fig. 1), so they fan out across the pool; their inner loops
  // nest safely (the pool's caller-participates design).
  const std::vector<std::string> names = expected_macros(config);
  std::unique_ptr<CampaignJournal> journal;
  if (!config.resilience.journal_path.empty())
    journal = std::make_unique<CampaignJournal>(config);
  auto macros = util::parallel_map(names.size(), [&](std::size_t i) {
    return run_macro_campaign(config, names[i], journal.get());
  });
  if (journal) journal->close();
  return compile_global(std::move(macros));
}

}  // namespace dot::flashadc
