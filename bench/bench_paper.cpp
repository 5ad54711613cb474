// The paper's tables and figures from one fault-simulation campaign.
//
// In the paper one campaign (fig. 1: sprinkle, collapse, simulate,
// compile) feeds Tables 2-3 and Figures 3-5. This harness runs the
// five-macro campaign twice -- the nominal design, then with both DfT
// measures on -- and prints every report from those two in-memory
// results, in paper order:
//   Table 2    voltage fault signatures (comparator)
//   Table 3    current fault signatures (comparator)
//   Figure 3   detectability matrix of catastrophic comparator faults
//   Sec. 3.2   test time and test-set optimization
//   Figure 4   global detectability (entire ADC)
//   Sec. 3.3   per-macro detectability breakdown
//   Figure 5   global detectability after DfT
//   Concl.     defect-oriented simple test vs specification-oriented test
// The comparator sections read the comparator entry of the nominal
// campaign. Classes whose evaluation never resolved are printed as
// their own segment or share whenever there are any.
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "flashadc/report.hpp"
#include "macro/signature.hpp"
#include "testgen/spec_test.hpp"
#include "testgen/testset.hpp"

namespace {

using namespace dot;
using flashadc::GlobalResult;
using flashadc::MacroCampaignResult;

/// The paper's simple test: the missing-code test plus all three
/// current measurements.
const std::vector<testgen::Mechanism> kSimpleTest = {
    testgen::Mechanism::kMissingCode, testgen::Mechanism::kIVdd,
    testgen::Mechanism::kIddq, testgen::Mechanism::kIinput};

/// "excluded: unresolved" line for the signature tables, whose shares
/// are taken over resolved classes only.
void print_excluded(const MacroCampaignResult& r) {
  const double cat = r.unresolved_weight(false);
  const double noncat = r.unresolved_weight(true);
  if (cat > 0.0 || noncat > 0.0)
    std::printf("excluded: unresolved %.1f %% of cat. / %.1f %% of "
                "non-cat. faults\n",
                100.0 * cat, 100.0 * noncat);
}

// Paper: "Output Stuck At" dominates ("due to the balanced nature of
// the design and the small biasing currents, a fault can easily tip
// this balance"); the "Clock value" signature grows for
// non-catastrophic faults ("clock signal lines are driven by large
// buffers ... high-ohmic faults do not cause the output of these
// buffers to be stuck-at, but only to change their high and low value
// slightly").
void render_table2(const MacroCampaignResult& r) {
  bench::print_header("Table 2 -- voltage fault signatures (comparator)");
  std::printf("defects=%zu faults=%zu classes=%zu (evaluated %zu)\n\n",
              r.defects.defects_sprinkled, r.defects.faults_extracted,
              r.defects.classes.size(), r.catastrophic.size());

  const auto cat = r.voltage_signature_fractions(false);
  const auto noncat = r.voltage_signature_fractions(true);
  util::TextTable table(
      {"fault signature", "% cat. faults", "% non-cat. faults"});
  for (int s = 0; s < macro::kVoltageSignatureCount; ++s) {
    const auto su = static_cast<std::size_t>(s);
    table.add_row({macro::voltage_signature_name(
                       static_cast<macro::VoltageSignature>(s)),
                   util::pct(cat[su]), util::pct(noncat[su])});
  }
  std::printf("%s\n", table.str().c_str());
  print_excluded(r);
  std::printf(
      "paper reference: stuck-at dominates both columns; the clock-value\n"
      "signature is more frequent for non-catastrophic faults.\n");
}

// Paper: IVdd / IDDQ / Iinput rows overlap (they add to more than
// 100%); "the large amount of faults (24.2% / 25.6%) which can be
// detected by measuring the quiescent current of the clock generator
// IDDQ is striking".
void render_table3(const MacroCampaignResult& r) {
  bench::print_header("Table 3 -- current fault signatures (comparator)");
  std::printf("defects=%zu classes evaluated=%zu\n\n",
              r.defects.defects_sprinkled, r.catastrophic.size());

  const auto cat = r.current_signature_fractions(false);
  const auto noncat = r.current_signature_fractions(true);
  util::TextTable table(
      {"fault signature", "% cat. faults", "% non-cat. faults"});
  const char* rows[] = {"IVdd", "IDDQ", "Iinput", "No deviations"};
  for (int i = 0; i < 4; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    table.add_row({rows[i], util::pct(cat[iu]), util::pct(noncat[iu])});
  }
  std::printf("%s\n", table.str().c_str());
  print_excluded(r);
  const auto total = [](const std::vector<double>& column) {
    return std::accumulate(column.begin(), column.end(), 0.0);
  };
  if (total(cat) > 1.0 && total(noncat) > 1.0)
    std::printf(
        "note: rows overlap (one fault can deviate several currents), so\n"
        "the columns add to more than 100%%.\n");
  std::printf("paper reference: IDDQ detects ~24-26%% of comparator faults.\n");
}

// Paper: the missing-code measurement detects 66.2%; 26.6% of the
// faults are only current detectable; 10.0% are detectable only by the
// clock generator's IDDQ.
void render_fig3(const MacroCampaignResult& r) {
  bench::print_header(
      "Figure 3 -- detectability of catastrophic comparator faults");
  const auto matrix = macro::compile_matrix(r.contribution(false).outcomes);

  util::TextTable table({"mechanism subset", "% of faults"});
  const char* labels[16] = {
      "undetected",
      "missing code only",
      "IVdd only",
      "missing code + IVdd",
      "IDDQ only",
      "missing code + IDDQ",
      "IVdd + IDDQ",
      "missing code + IVdd + IDDQ",
      "Iinput only",
      "missing code + Iinput",
      "IVdd + Iinput",
      "missing code + IVdd + Iinput",
      "IDDQ + Iinput",
      "missing code + IDDQ + Iinput",
      "IVdd + IDDQ + Iinput",
      "all four",
  };
  for (int mask = 0; mask < 16; ++mask) {
    const double f = matrix.fraction[static_cast<std::size_t>(mask)];
    if (f < 1e-9) continue;
    table.add_row({labels[mask], util::pct(f)});
  }
  if (matrix.unresolved > 0.0)
    table.add_row({"unresolved", util::pct(matrix.unresolved)});
  std::printf("%s\n", table.str().c_str());

  double current_only = 0.0;
  for (int mask = 2; mask < 16; mask += 2)  // any current bit, mc bit clear
    current_only += matrix.fraction[static_cast<std::size_t>(mask)];
  std::printf("missing-code detects        : %5.1f %%  (paper: 66.2)\n",
              100.0 * matrix.by_mechanism(1));
  std::printf("only current detectable     : %5.1f %%  (paper: 26.6)\n",
              100.0 * current_only);
  std::printf("only IDDQ detectable        : %5.1f %%  (paper: 10.0)\n",
              100.0 * matrix.only_mechanism(4));
  std::printf("total detected              : %5.1f %%\n",
              100.0 * matrix.detected());
}

// The missing-code test samples at full conversion speed; the current
// test needs six quiescent measurements with settling; the combination
// stays orders of magnitude below specification-oriented testing.
void render_testtime(const MacroCampaignResult& r) {
  bench::print_header("Test time and test-set optimization");

  const testgen::TesterTiming timing;
  using testgen::Mechanism;
  const std::pair<const char*, std::vector<Mechanism>> tests[] = {
      {"missing code (1000 samples at 10 MHz)", {Mechanism::kMissingCode}},
      {"one current mechanism (6 readings)", {Mechanism::kIVdd}},
      {"all current mechanisms",
       {Mechanism::kIVdd, Mechanism::kIddq, Mechanism::kIinput}},
      {"complete simple test set", kSimpleTest},
  };
  util::TextTable table({"test", "time"});
  for (const auto& [label, mechanisms] : tests)
    table.add_row(
        {label, util::si(testgen::test_time(mechanisms, timing), "s")});
  std::printf("%s\n", table.str().c_str());

  // Greedy optimization against the comparator campaign outcomes.
  const auto set = testgen::optimize_test_set(r.contribution(false).outcomes,
                                              timing);
  std::printf("optimized set for comparator faults:");
  for (auto m : set.mechanisms)
    std::printf(" [%s]", testgen::mechanism_name(m).c_str());
  std::printf("\n  coverage %.1f %%  time %s\n", 100.0 * set.coverage,
              util::si(set.time_seconds, "s").c_str());
  std::printf(
      "paper reference: the whole simple test takes milliseconds of\n"
      "tester time, versus seconds-to-minutes for full specification\n"
      "(functional) testing of an 8-bit video ADC.\n");
}

// Paper: (a) voltage-only 21.5%, both 39.3%, current-only 32.5%,
// total 93.3%; (b) 21.7 / 27.3 / 44.1, total 93.1%.
void render_fig4(const GlobalResult& global) {
  bench::print_header("Figure 4 -- global detectability (entire ADC)");

  std::printf("macro areas (one instance x count):\n");
  double total_area = 0.0;
  for (const auto& m : global.macros)
    total_area += m.cell_area * static_cast<double>(m.instance_count);
  for (const auto& m : global.macros) {
    const double area = m.cell_area * static_cast<double>(m.instance_count);
    std::printf("  %-11s %9.0f um^2 x %3zu = %12.0f um^2 (%4.1f %%)\n",
                m.macro_name.c_str(), m.cell_area, m.instance_count, area,
                100.0 * area / total_area);
  }
  std::printf("\n");

  const auto venn = [](const char* title, const macro::VennResult& v,
                       const char* paper) {
    std::printf("%s\n", title);
    util::TextTable table({"segment", "% of faults"});
    table.add_row({"voltage only", util::pct(v.voltage_only)});
    table.add_row({"voltage + current", util::pct(v.both)});
    table.add_row({"current only", util::pct(v.current_only)});
    table.add_row({"undetected", util::pct(v.undetected)});
    if (v.unresolved > 0.0)
      table.add_row({"unresolved", util::pct(v.unresolved)});
    std::printf("%s", table.str().c_str());
    std::printf(
        "total coverage: %.1f %%   voltage: %.1f %%   current: %.1f %%\n",
        100.0 * v.detected(), 100.0 * v.voltage_total(),
        100.0 * v.current_total());
    std::printf("paper reference: %s\n\n", paper);
  };
  venn("(a) catastrophic faults", global.venn_catastrophic,
       "21.5 / 39.3 / 32.5, total 93.3%");
  venn("(b) non-catastrophic faults", global.venn_noncatastrophic,
       "21.7 / 27.3 / 44.1, total 93.1%");

  std::printf("faults detectable ONLY by clock-generator IDDQ: %.1f %% "
              "(paper: 11.0%%)\n",
              100.0 * global.matrix_catastrophic.only_mechanism(4));
}

// Paper sec. 3.3: "in the clock generator 93.8% and in the reference
// ladder even 99.8% of the faults were current detectable".
void render_breakdown(const GlobalResult& global) {
  bench::print_header("Per-macro detectability breakdown");

  util::TextTable table({"macro", "faults", "classes", "coverage %",
                         "current-detectable %"});
  std::string unresolved;
  for (const auto& m : global.macros) {
    table.add_row({m.macro_name,
                   std::to_string(m.defects.faults_extracted),
                   std::to_string(m.defects.classes.size()),
                   util::pct(m.coverage(false)),
                   util::pct(m.current_coverage(false))});
    if (m.unresolved_weight(false) > 0.0)
      unresolved += (unresolved.empty() ? "" : ", ") + m.macro_name + " " +
                    util::pct(m.unresolved_weight(false)) + " %";
  }
  std::printf("%s\n", table.str().c_str());
  // Unresolved classes stay in the coverage denominators as not
  // detected; say how much weight that is.
  if (!unresolved.empty())
    std::printf("excluded: unresolved %s of the faults\n",
                unresolved.c_str());
  std::printf(
      "paper reference: clock generator 93.8%% and reference ladder 99.8%%\n"
      "current detectable.\n");
}

// Paper: coverage rises from 93.3% to 99.1% (catastrophic); the
// voltage-only segment shrinks to 5.8% (5.6% non-catastrophic), making
// a current-only wafer-sort test feasible.
void render_fig5(const GlobalResult& before, const GlobalResult& after) {
  bench::print_header("Figure 5 -- global detectability after DfT");

  const auto venn = [](const char* title, const macro::VennResult& v) {
    std::printf("%s: voltage-only %.1f%%  both %.1f%%  current-only %.1f%%  "
                "undetected %.1f%%",
                title, 100.0 * v.voltage_only, 100.0 * v.both,
                100.0 * v.current_only, 100.0 * v.undetected);
    if (v.unresolved > 0.0)
      std::printf("  unresolved %.1f%%", 100.0 * v.unresolved);
    std::printf("  => total %.1f%%\n", 100.0 * v.detected());
  };
  std::printf("--- nominal design ---\n");
  venn("catastrophic     ", before.venn_catastrophic);
  venn("non-catastrophic ", before.venn_noncatastrophic);

  std::printf("\n--- with DfT: leakage-free flipflop + separated bias lines "
              "---\n");
  venn("catastrophic     ", after.venn_catastrophic);
  venn("non-catastrophic ", after.venn_noncatastrophic);

  std::printf(
      "\ncoverage change (catastrophic): %.1f %% -> %.1f %% "
      "(paper: 93.3 -> 99.1)\n",
      100.0 * before.venn_catastrophic.detected(),
      100.0 * after.venn_catastrophic.detected());
  const double cat_vonly = after.venn_catastrophic.voltage_only;
  const double noncat_vonly = after.venn_noncatastrophic.voltage_only;
  std::printf(
      "voltage-only after DfT: cat %.1f %% / non-cat %.1f %% "
      "(paper: 5.8 / 5.6) -- post-DfT voltage-only <= 10%%: %s\n",
      100.0 * cat_vonly, 100.0 * noncat_vonly,
      cat_vonly <= 0.10 && noncat_vonly <= 0.10 ? "holds" : "fails");
}

// The paper's concluding comparison: "First impressions lead to the
// conclusion that the analyzed test obtains a higher defect coverage
// with lower test costs than functional tests."
void render_spec_comparison(const MacroCampaignResult& r) {
  bench::print_header(
      "Defect-oriented simple test vs specification-oriented test");

  // Defect-oriented: the paper's simple test set.
  const double simple_cov =
      testgen::coverage(r.contribution(false).outcomes, kSimpleTest);
  const double simple_time = testgen::test_time(kSimpleTest);

  // Specification-oriented: estimated from the voltage signatures (a
  // functional test observes only the converter's transfer behaviour).
  std::vector<testgen::SignatureWeight> signatures;
  for (const auto& o : r.catastrophic)
    signatures.push_back({o.voltage, static_cast<double>(o.cls.count)});
  const double spec_cov = testgen::spec_test_coverage(signatures);
  const double spec_time = testgen::spec_test_time();

  util::TextTable table({"test approach", "fault coverage %", "tester time"});
  table.add_row({"defect-oriented simple test", util::pct(simple_cov),
                 util::si(simple_time, "s")});
  table.add_row({"specification-oriented test", util::pct(spec_cov),
                 util::si(spec_time, "s")});
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "speedup: %.0fx less tester time at %+.1f points of coverage\n",
      spec_time / simple_time, 100.0 * (simple_cov - spec_cov));
  std::printf(
      "the functional test also never observes the quiescent-current\n"
      "signatures, so its escapes are silicon with latent defects --\n"
      "the reliability argument of the paper's introduction.\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv, 300000);
  const bench::WallTimer timer;

  const auto nominal = flashadc::run_full_campaign(args.config);
  args.config.dft.leakage_free_flipflop = true;
  args.config.dft.separated_bias_lines = true;
  const auto dft = flashadc::run_full_campaign(args.config);
  // run_full_campaign lists the five macros in campaign order.
  const auto& comparator = nominal.macros.front();

  render_table2(comparator);
  render_table3(comparator);
  render_fig3(comparator);
  render_testtime(comparator);
  render_fig4(nominal);
  render_breakdown(nominal);
  render_fig5(nominal, dft);
  render_spec_comparison(comparator);

  std::size_t classes = 0;
  for (const auto* g : {&nominal, &dft})
    for (const auto& m : g->macros)
      classes += m.catastrophic.size() + m.noncatastrophic.size();
  bench::report_run(args, timer, classes,
                    "{\"nominal\": " + flashadc::to_json(nominal) +
                        ", \"dft\": " + flashadc::to_json(dft) + "}");
  return 0;
}
