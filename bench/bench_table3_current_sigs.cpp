// Table 3: current fault signatures of the comparator.
//
// Paper: IVdd / IDDQ / Iinput rows overlap (they add to more than
// 100%); "the large amount of faults (24.2% / 25.6%) which can be
// detected by measuring the quiescent current of the clock generator
// IDDQ is striking".
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  const auto args = bench::BenchArgs::parse(argc, argv, 200000);
  const bench::WallTimer timer;

  bench::print_header("Table 3 -- current fault signatures (comparator)");
  const auto r = flashadc::run_macro_campaign(args.config, "comparator");
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
  std::printf(
      "note: rows overlap (one fault can deviate several currents), so\n"
      "the columns add to more than 100%% -- exactly as in the paper.\n"
      "paper reference: IDDQ detects ~24-26%% of comparator faults.\n");
  bench::report_run(args, timer,
                    r.catastrophic.size() + r.noncatastrophic.size());
  return 0;
}
