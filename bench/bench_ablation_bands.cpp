// Ablation: how the acceptance-band width (k-sigma and tester noise
// floor) trades escape rate against yield loss. The paper fixes 3-sigma;
// this sweep shows why: tighter bands buy little coverage, looser bands
// lose the current test's power.
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  auto args = bench::BenchArgs::parse(argc, argv, 150000);
  args.config.max_classes = std::min<std::size_t>(args.config.max_classes, 120);

  bench::print_header("Ablation -- acceptance bands (comparator)");

  // Sweep 1: measurement-access dilution. 1/256 models a tester that can
  // observe each comparator column's supply individually (a hypothetical
  // DfT current monitor); 1 is the paper's chip-level measurement.
  util::TextTable dilution_table(
      {"supply measurement granularity", "coverage %",
       "current-detectable %"});
  struct Access {
    const char* name;
    double scale;
  };
  for (const Access access : {Access{"per-comparator (1 cell)", 1.0 / 256.0},
                              Access{"per-group (16 cells)", 16.0 / 256.0},
                              Access{"chip level (256 cells)", 1.0}}) {
    auto config = args.config;
    config.band_policy.ivdd_dilution = access.scale;
    config.band_policy.iinput_dilution = access.scale;
    const auto r = flashadc::run_macro_campaign(config, "comparator");
    dilution_table.add_row({access.name, util::pct(r.coverage(false)),
                            util::pct(r.current_coverage(false))});
  }
  std::printf("%s\n", dilution_table.str().c_str());

  // Sweep 2: band width and tester floors at chip level.
  util::TextTable table({"k_sigma", "abs floor", "coverage %",
                         "current-detectable %"});
  for (double k : {1.0, 3.0, 6.0}) {
    auto config = args.config;
    config.band_policy.k_sigma = k;
    const auto r = flashadc::run_macro_campaign(config, "comparator");
    table.add_row({util::fmt(k, 1), util::si(config.band_policy.abs_floor,
                                             "A", 0),
                   util::pct(r.coverage(false)),
                   util::pct(r.current_coverage(false))});
  }
  for (double floor : {2e-7, 2e-5, 2e-4}) {
    auto config = args.config;
    config.band_policy.abs_floor = floor;
    const auto r = flashadc::run_macro_campaign(config, "comparator");
    table.add_row({util::fmt(config.band_policy.k_sigma, 1),
                   util::si(floor, "A", 0), util::pct(r.coverage(false)),
                   util::pct(r.current_coverage(false))});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "reading: finer supply-measurement access buys current coverage (an\n"
      "on-chip current-monitor DfT); the IDDQ floor matters because the\n"
      "fault-free digital part draws (almost) nothing; k_sigma is a\n"
      "second-order effect once chip-level dilution dominates.\n");
  return 0;
}
