// The paper's concluding comparison: the defect-oriented simple test
// versus a specification-oriented (functional) test program, in fault
// coverage and tester time. ("First impressions lead to the conclusion
// that the analyzed test obtains a higher defect coverage with lower
// test costs than functional tests.")
#include <algorithm>

#include "bench_common.hpp"
#include "testgen/spec_test.hpp"
#include "testgen/testset.hpp"

int main(int argc, char** argv) {
  using namespace dot;
  auto args = bench::BenchArgs::parse(argc, argv, 150000);
  args.config.max_classes = std::min<std::size_t>(args.config.max_classes, 150);

  bench::print_header(
      "Defect-oriented simple test vs specification-oriented test");
  const auto r = flashadc::run_macro_campaign(args.config, "comparator");

  // Defect-oriented: the paper's simple test set.
  const auto outcomes = r.contribution(false).outcomes;
  const std::vector<testgen::Mechanism> simple = {
      testgen::Mechanism::kMissingCode, testgen::Mechanism::kIVdd,
      testgen::Mechanism::kIddq, testgen::Mechanism::kIinput};
  const double simple_cov = testgen::coverage(outcomes, simple);
  const double simple_time = testgen::test_time(simple);

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
  return 0;
}
