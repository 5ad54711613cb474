// Ablation: sensitivity of the coverage figures to the circuit-level
// fault-model parameters (bridge resistances, the near-miss RC) -- the
// design choices section 3.2 of the paper fixes from process data.
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  auto args = bench::BenchArgs::parse(argc, argv, 150000);
  args.config.max_classes = std::min<std::size_t>(args.config.max_classes, 120);

  bench::print_header("Ablation -- fault-model parameters (comparator)");
  util::TextTable table({"variant", "cat coverage %", "noncat coverage %"});

  {
    const auto r = flashadc::run_macro_campaign(args.config, "comparator");
    table.add_row({"baseline (0.2R metal, 2k pinhole, 500R near-miss)",
                   util::pct(r.coverage(false)), util::pct(r.coverage(true))});
  }
  {
    auto config = args.config;
    config.fault_models.metal_short_ohms = 20.0;
    const auto r = flashadc::run_macro_campaign(config, "comparator");
    table.add_row({"metal shorts 20 Ohm", util::pct(r.coverage(false)),
                   util::pct(r.coverage(true))});
  }
  {
    auto config = args.config;
    config.fault_models.pinhole_ohms = 20e3;
    const auto r = flashadc::run_macro_campaign(config, "comparator");
    table.add_row({"pinholes 20 kOhm", util::pct(r.coverage(false)),
                   util::pct(r.coverage(true))});
  }
  {
    auto config = args.config;
    config.fault_models.noncat_ohms = 5e3;
    const auto r = flashadc::run_macro_campaign(config, "comparator");
    table.add_row({"near-miss 5 kOhm", util::pct(r.coverage(false)),
                   util::pct(r.coverage(true))});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "expectation: higher-ohmic bridges are harder to detect, so the\n"
      "coverage figures degrade as the models soften -- the methodology's\n"
      "numbers depend on calibrated fault models, as the paper stresses.\n");
  return 0;
}
