// DfT exploration: evaluates the two design-for-testability measures the
// methodology suggested (paper section 3.4) -- individually and combined
// -- on the comparator macro, the cell that dominates the ADC.
//
//   measure 1: redesign the flipflop so it draws no contention current
//              during the sampling phase (its process spread was masking
//              IVdd fault signatures);
//   measure 2: separate the two bias lines that carry nearly identical
//              voltages (shorts between them were undetectable).
//
// Usage: dft_exploration [--quick]
#include <cstdio>
#include <cstring>

#include "flashadc/campaign.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dot;

  flashadc::CampaignConfig base;
  base.defect_count = 200000;
  base.envelope_samples = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      base.defect_count = 50000;
      base.envelope_samples = 8;
      base.max_classes = 40;
    } else {
      const bool help = std::strcmp(argv[i], "--help") == 0;
      if (!help)
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return help ? 0 : 2;
    }
  }

  struct Variant {
    const char* name;
    bool ff;
    bool bias;
  };
  const Variant variants[] = {
      {"nominal design", false, false},
      {"leakage-free flipflop", true, false},
      {"separated bias lines", false, true},
      {"both DfT measures", true, true},
  };

  util::TextTable table({"design variant", "coverage %", "current %",
                         "undetected classes"});
  for (const auto& variant : variants) {
    auto config = base;
    config.dft.leakage_free_flipflop = variant.ff;
    config.dft.separated_bias_lines = variant.bias;
    const auto r = flashadc::run_macro_campaign(config, "comparator");
    std::size_t undetected = 0;
    for (const auto& o : r.catastrophic)
      undetected += o.detection.detected() ? 0 : 1;
    table.add_row({variant.name, util::pct(r.coverage(false)),
                   util::pct(r.current_coverage(false)),
                   std::to_string(undetected)});
    std::printf("evaluated: %s\n", variant.name);
  }
  std::printf("\n%s\n", table.str().c_str());
  std::printf(
      "paper: the combined measures raise global coverage from 93.3 %% to\n"
      "99.1 %% and shrink the voltage-only segment to ~6 %%, making a\n"
      "current-only wafer-sort test feasible.\n");
  return 0;
}
