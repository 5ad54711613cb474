// Test-time accounting (paper section 3.2 and conclusions): the
// missing-code test samples at full conversion speed; the current test
// needs six quiescent measurements with settling; the combination stays
// orders of magnitude below specification-oriented testing.
#include <algorithm>

#include "bench_common.hpp"
#include "testgen/testset.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  auto args = bench::BenchArgs::parse(argc, argv, 150000);
  args.config.max_classes = std::min<std::size_t>(args.config.max_classes, 120);

  bench::print_header("Test time and test-set optimization");

  const testgen::TesterTiming timing;
  using testgen::Mechanism;
  util::TextTable table({"test", "time"});
  table.add_row({"missing code (1000 samples at 10 MHz)",
                 util::si(testgen::test_time({Mechanism::kMissingCode},
                                             timing),
                          "s")});
  table.add_row({"one current mechanism (6 readings)",
                 util::si(testgen::test_time({Mechanism::kIVdd}, timing),
                          "s")});
  table.add_row(
      {"all current mechanisms",
       util::si(testgen::test_time({Mechanism::kIVdd, Mechanism::kIddq,
                                    Mechanism::kIinput},
                                   timing),
                "s")});
  table.add_row(
      {"complete simple test set",
       util::si(testgen::test_time({Mechanism::kMissingCode,
                                    Mechanism::kIVdd, Mechanism::kIddq,
                                    Mechanism::kIinput},
                                   timing),
                "s")});
  std::printf("%s\n", table.str().c_str());

  // Greedy optimization against the comparator campaign outcomes.
  const auto r = flashadc::run_macro_campaign(args.config, "comparator");
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
  return 0;
}
