// Table 2: voltage fault signatures of the comparator, for catastrophic
// and non-catastrophic faults.
//
// Paper shape: "Output Stuck At" dominates ("due to the balanced nature
// of the design and the small biasing currents, a fault can easily tip
// this balance"); the "Clock value" signature grows for non-catastrophic
// faults ("clock signal lines are driven by large buffers ... high-ohmic
// faults do not cause the output of these buffers to be stuck-at, but
// only to change their high and low value slightly").
#include "bench_common.hpp"
#include "macro/signature.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  const auto args = bench::BenchArgs::parse(argc, argv, 200000);
  const bench::WallTimer timer;

  bench::print_header("Table 2 -- voltage fault signatures (comparator)");
  const auto r = flashadc::run_macro_campaign(args.config, "comparator");
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
  std::printf(
      "paper reference: stuck-at dominates both columns; the clock-value\n"
      "signature is more frequent for non-catastrophic faults.\n");
  bench::report_run(args, timer,
                    r.catastrophic.size() + r.noncatastrophic.size());
  return 0;
}
