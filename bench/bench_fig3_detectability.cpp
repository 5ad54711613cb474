// Figure 3: detectability of catastrophic comparator faults across the
// four detection mechanisms, including overlaps.
//
// Paper: the missing-code measurement detects 66.2%; 26.6% of the
// faults are only current detectable; 10.0% are detectable only by the
// clock generator's IDDQ.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  const auto args = bench::BenchArgs::parse(argc, argv, 200000);
  const bench::WallTimer timer;

  bench::print_header(
      "Figure 3 -- detectability of catastrophic comparator faults");
  const auto r = flashadc::run_macro_campaign(args.config, "comparator");
  const auto contribution = r.contribution(false);
  const auto matrix = macro::compile_matrix(contribution.outcomes);

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
  std::printf("%s\n", table.str().c_str());

  const double current_any =
      matrix.by_mechanism(2) + matrix.only_mechanism(4) +
      0.0;  // helper below gives exact unions
  (void)current_any;
  double current_only = 0.0, iddq_only = matrix.only_mechanism(4);
  for (int mask = 2; mask < 16; mask += 2)  // any current bit, mc bit clear
    if ((mask & 1) == 0) current_only += matrix.fraction[static_cast<std::size_t>(mask)];
  std::printf("missing-code detects        : %5.1f %%  (paper: 66.2)\n",
              100.0 * matrix.by_mechanism(1));
  std::printf("only current detectable     : %5.1f %%  (paper: 26.6)\n",
              100.0 * current_only);
  std::printf("only IDDQ detectable        : %5.1f %%  (paper: 10.0)\n",
              100.0 * iddq_only);
  std::printf("total detected              : %5.1f %%\n",
              100.0 * matrix.detected());
  bench::report_run(args, timer,
                    r.catastrophic.size() + r.noncatastrophic.size());
  return 0;
}
