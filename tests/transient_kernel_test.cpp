// The transient kernel: its linear-solver choice on the comparator and
// bank-8 benches, its phase times, and a campaign cut to its first
// class evaluating alike at batch 1 and 2.
#include <gtest/gtest.h>

#include <string>

#include "campaign_compare.hpp"
#include "fault/fault.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace dot {
namespace {

// A campaign cut to its first class, run at batch 1 and 2: the one
// class resolves on its first attempt, counts in batch_evaluated only
// at batch 2, and gets the same verdict. Returns the batch-2 run.
flashadc::MacroCampaignResult expect_one_member_batch_equals_scalar(
    flashadc::CampaignConfig config, const std::string& macro) {
  config.max_classes = 1;
  config.batch = 1;
  const auto scalar = flashadc::run_macro_campaign(config, macro);
  config.batch = 2;
  auto batched = flashadc::run_macro_campaign(config, macro);
  EXPECT_EQ(scalar.batch_evaluated, 0u) << macro;
  EXPECT_EQ(batched.batch_evaluated, 1u) << macro;
  expect_same_outcomes(scalar.catastrophic, batched.catastrophic,
                       macro + " catastrophic");
  expect_same_outcomes(scalar.noncatastrophic, batched.noncatastrophic,
                       macro + " noncat");
  for (const auto* list : {&batched.catastrophic, &batched.noncatastrophic})
    for (const auto& outcome : *list) EXPECT_EQ(outcome.attempts, 1) << macro;
  return batched;
}

// The 39-unknown comparator bench takes the sparse LU under the default
// threshold on all four decision-grid points, and a one-member batch of
// the comparator campaign equals its scalar path.
TEST(TransientKernel, ComparatorScalarEqualsOneMemberBatch) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto options = flashadc::comparator_tran_options();
  ASSERT_LT(options.solver.sparse_threshold, 39u);
  for (const double dv : flashadc::kDecisionGrid) {
    const auto run = spice::transient(
        flashadc::instantiate_comparator_bench(macro, dv), options);
    EXPECT_EQ(run.stats().unknowns, 39u) << "dv " << dv;
    EXPECT_TRUE(run.stats().sparse) << "dv " << dv;
  }
  expect_one_member_batch_equals_scalar(small_config(), "comparator");
}

// Same on 8-slice banks carrying a bridge: an inter-slice bridge bench
// (integrated from the zero state, like the bank campaign) takes the
// sparse LU, and the bank-8 campaign's first class, a short, evaluates
// alike as a one-member batch and on the scalar path.
TEST(TransientKernel, BankScalarEqualsOneMemberBatchWithBridge) {
  flashadc::BankOptions bank;
  bank.size = 8;
  auto bank_macro = flashadc::build_bank_netlist(bank);
  ASSERT_TRUE(bank_macro.find_node("s3_outp").has_value());
  ASSERT_TRUE(bank_macro.find_node("s4_outn").has_value());
  bank_macro.add_resistor("rbridge", "s3_outp", "s4_outn", 500.0);
  const auto run = spice::transient(
      flashadc::instantiate_bank_bench(bank_macro, bank, 3, 0.009),
      flashadc::bank_tran_options());
  EXPECT_TRUE(run.stats().sparse);

  auto config = small_config();
  config.macro_selection = "bank";
  config.bank_size = 8;
  const auto batched = expect_one_member_batch_equals_scalar(config, "bank");
  ASSERT_FALSE(batched.defects.classes.empty());
  EXPECT_EQ(batched.defects.classes.front().representative.kind,
            fault::FaultKind::kShort);
}

// With phase times collected, device evaluation (run inside the stamp
// program replay) and assembly are reported as separate, nonzero
// phases: assembly is the stamping wall time minus the evaluation.
TEST(TransientKernel, PhaseTimesReportDeviceEvalAndAssembly) {
  const auto macro = flashadc::build_comparator_netlist();
  auto options = flashadc::comparator_tran_options();
  options.collect_phase_times = true;
  const auto run = spice::transient(
      flashadc::instantiate_comparator_bench(macro, 0.009), options);
  const spice::PhaseTimes& pt = run.stats().phases;
  EXPECT_GT(pt.device_eval_seconds, 0.0);
  EXPECT_GT(pt.assembly_seconds, 0.0);
  EXPECT_GT(pt.factor_seconds, 0.0);
  EXPECT_GT(pt.solve_seconds, 0.0);
  EXPECT_LT(pt.device_eval_seconds, pt.total_seconds());
}

}  // namespace
}  // namespace dot
