#include "flashadc/report.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace dot::flashadc {
namespace {

/// Weight fraction (by class count) of `outcomes` satisfying `pred`.
template <typename Pred>
double weighted_fraction(const std::vector<FaultOutcome>& outcomes,
                         Pred&& pred) {
  double hit = 0.0, total = 0.0;
  for (const auto& o : outcomes) {
    const auto w = static_cast<double>(o.cls.count);
    if (pred(o)) hit += w;
    total += w;
  }
  return total > 0.0 ? hit / total : 0.0;
}

bool resolved(const FaultOutcome& o) { return o.status == EvalStatus::kOk; }

void write_outcome(util::JsonWriter& w, const FaultOutcome& o) {
  w.begin_object();
  w.key("kind");
  w.value(fault::fault_kind_name(o.cls.representative.kind));
  w.key("nets");
  w.begin_array();
  for (const auto& net : o.cls.representative.nets) w.value(net);
  w.end_array();
  if (!o.cls.representative.device.empty()) {
    w.key("device");
    w.value(o.cls.representative.device);
  }
  w.key("count");
  w.value(o.cls.count);
  w.key("non_catastrophic");
  w.value(o.non_catastrophic);
  w.key("voltage_signature");
  w.value(macro::voltage_signature_name(o.voltage));
  w.key("current_signature");
  w.begin_object();
  w.key("ivdd");
  w.value(o.current.ivdd);
  w.key("iddq");
  w.value(o.current.iddq);
  w.key("iinput");
  w.value(o.current.iinput);
  w.end_object();
  w.key("detected");
  w.value(o.detection.detected());
  w.key("missing_code");
  w.value(o.detection.missing_code);
  w.key("status");
  w.value(o.status == EvalStatus::kOk ? "ok" : "unresolved");
  w.key("attempts");
  w.value(o.attempts);
  if (!o.failure.empty()) {
    w.key("failure");
    w.value(o.failure);
  }
  w.end_object();
}

void write_macro(util::JsonWriter& w, const MacroCampaignResult& r) {
  w.begin_object();
  w.key("macro");
  w.value(r.macro_name);
  w.key("cell_area_um2");
  w.value(r.cell_area);
  w.key("instances");
  w.value(r.instance_count);
  w.key("defects_sprinkled");
  w.value(r.defects.defects_sprinkled);
  w.key("faults_extracted");
  w.value(r.defects.faults_extracted);
  w.key("fault_classes");
  w.value(r.defects.classes.size());
  w.key("coverage");
  w.value(r.coverage(false));
  w.key("current_coverage");
  w.value(r.current_coverage(false));
  w.key("unresolved_weight");
  w.value(r.unresolved_weight(false));
  w.key("unresolved_classes");
  w.value(r.unresolved_classes());
  w.key("batch_evaluated");
  w.value(r.batch_evaluated);
  if (r.phase_times.total_seconds() > 0.0) {
    // Solver wall-time breakdown of the transient class evaluations
    // (collected only when CampaignConfig::collect_phase_times is set).
    w.key("phase_times");
    w.begin_object();
    w.key("device_eval_seconds");
    w.value(r.phase_times.device_eval_seconds);
    w.key("assembly_seconds");
    w.value(r.phase_times.assembly_seconds);
    w.key("factor_seconds");
    w.value(r.phase_times.factor_seconds);
    // Sub-buckets of factor_seconds: from-scratch symbolic analyses and
    // numeric (re)factorizations.
    w.key("factor_symbolic_seconds");
    w.value(r.phase_times.factor_symbolic_seconds);
    w.key("factor_numeric_seconds");
    w.value(r.phase_times.factor_numeric_seconds);
    w.key("solve_seconds");
    w.value(r.phase_times.solve_seconds);
    w.end_object();
  }
  w.key("catastrophic");
  w.begin_array();
  for (const auto& o : r.catastrophic) write_outcome(w, o);
  w.end_array();
  w.key("non_catastrophic");
  w.begin_array();
  for (const auto& o : r.noncatastrophic) write_outcome(w, o);
  w.end_array();
  w.end_object();
}

void write_venn(util::JsonWriter& w, const macro::VennResult& venn) {
  w.begin_object();
  w.key("voltage_only");
  w.value(venn.voltage_only);
  w.key("both");
  w.value(venn.both);
  w.key("current_only");
  w.value(venn.current_only);
  w.key("undetected");
  w.value(venn.undetected);
  w.key("unresolved");
  w.value(venn.unresolved);
  w.key("coverage");
  w.value(venn.detected());
  w.end_object();
}

}  // namespace

macro::MacroContribution MacroCampaignResult::contribution(
    bool non_catastrophic) const {
  macro::MacroContribution c;
  c.name = macro_name;
  c.cell_area = cell_area;
  c.instance_count = instance_count;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic)
    c.outcomes.push_back(
        {o.detection, static_cast<double>(o.cls.count), !resolved(o)});
  return c;
}

std::vector<double> MacroCampaignResult::voltage_signature_fractions(
    bool non_catastrophic) const {
  std::vector<double> fractions(macro::kVoltageSignatureCount, 0.0);
  double total = 0.0;
  for (const auto& o : non_catastrophic ? noncatastrophic : catastrophic) {
    if (!resolved(o)) continue;  // no trustworthy signature
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
    if (!resolved(o)) continue;  // no trustworthy signature
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
  return weighted_fraction(non_catastrophic ? noncatastrophic : catastrophic,
                           [](const FaultOutcome& o) {
                             return resolved(o) && o.detection.detected();
                           });
}

double MacroCampaignResult::current_coverage(bool non_catastrophic) const {
  return weighted_fraction(non_catastrophic ? noncatastrophic : catastrophic,
                           [](const FaultOutcome& o) {
                             return resolved(o) &&
                                    o.detection.current_detected();
                           });
}

double MacroCampaignResult::unresolved_weight(bool non_catastrophic) const {
  return weighted_fraction(non_catastrophic ? noncatastrophic : catastrophic,
                           [](const FaultOutcome& o) { return !resolved(o); });
}

std::size_t MacroCampaignResult::unresolved_classes() const {
  auto unresolved = [](const FaultOutcome& o) { return !resolved(o); };
  return static_cast<std::size_t>(
      std::count_if(catastrophic.begin(), catastrophic.end(), unresolved) +
      std::count_if(noncatastrophic.begin(), noncatastrophic.end(),
                    unresolved));
}

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

std::string to_json(const MacroCampaignResult& result) {
  util::JsonWriter w;
  write_macro(w, result);
  return w.str();
}

std::string to_json(const GlobalResult& result) {
  return to_json(result, false);
}

std::string to_json(const GlobalResult& result, bool interrupted) {
  util::JsonWriter w;
  w.begin_object();
  if (interrupted) {
    w.key("interrupted");
    w.value(true);
  }
  w.key("macros");
  w.begin_array();
  for (const auto& m : result.macros) write_macro(w, m);
  w.end_array();
  w.key("global_catastrophic");
  write_venn(w, result.venn_catastrophic);
  w.key("global_non_catastrophic");
  write_venn(w, result.venn_noncatastrophic);
  w.end_object();
  return w.str();
}

}  // namespace dot::flashadc
