// Differential properties of the batched campaign prepass, which runs
// each pending class's first scalar attempt in chunks of classes:
// campaigns must produce identical verdicts at every batch size, and a
// class whose prepass attempt hits its evaluation budget must degrade
// to the scalar attempt ladder without poisoning the rest of its chunk.
// Also here: a one-member chunk against the scalar path on the
// comparator and bank-8 campaigns, and the transient kernel's
// linear-solver choice and phase times.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "spice/netlist.hpp"
#include "spice/resilience.hpp"
#include "spice/transient.hpp"

namespace dot {
namespace {

// ---------------------------------------------------------------------
// Transient kernel: the scalar path against a one-member prepass chunk,
// linear-solver choice and phase times.

flashadc::CampaignConfig small_config() {
  flashadc::CampaignConfig config;
  config.defect_count = 20000;
  config.seed = 11;
  config.envelope_samples = 6;
  config.max_classes = 12;
  return config;
}

void expect_same_outcomes(const std::vector<flashadc::FaultOutcome>& a,
                          const std::vector<flashadc::FaultOutcome>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].voltage, b[i].voltage) << what << " class " << i;
    EXPECT_EQ(a[i].current.ivdd, b[i].current.ivdd) << what << " class " << i;
    EXPECT_EQ(a[i].current.iddq, b[i].current.iddq) << what << " class " << i;
    EXPECT_EQ(a[i].current.iinput, b[i].current.iinput)
        << what << " class " << i;
    EXPECT_EQ(a[i].detection.detected(), b[i].detection.detected())
        << what << " class " << i;
    EXPECT_EQ(a[i].status, b[i].status) << what << " class " << i;
  }
}

// A campaign cut to its first class, run on the scalar path (batch 1)
// and with the prepass on (batch 2): the one class fills a one-member
// chunk, finishes in the prepass on its first attempt and gets the
// scalar path's verdict. Returns the batched run.
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

// ---------------------------------------------------------------------
// Campaign level: identical verdicts at every batch size.

TEST(BatchedCampaign, ComparatorVerdictsIdenticalAcrossBatchSizes) {
  auto config = small_config();
  config.batch = 1;
  const auto scalar = flashadc::run_macro_campaign(config, "comparator");
  EXPECT_EQ(scalar.batch_evaluated, 0u);
  for (const std::size_t batch : {std::size_t{4}, std::size_t{16}}) {
    config.batch = batch;
    const auto batched = flashadc::run_macro_campaign(config, "comparator");
    EXPECT_GT(batched.batch_evaluated, 0u) << "batch " << batch;
    expect_same_outcomes(scalar.catastrophic, batched.catastrophic,
                         "catastrophic b" + std::to_string(batch));
    expect_same_outcomes(scalar.noncatastrophic, batched.noncatastrophic,
                         "noncat b" + std::to_string(batch));
    EXPECT_EQ(scalar.coverage(false), batched.coverage(false));
    EXPECT_EQ(scalar.coverage(true), batched.coverage(true));
  }
}

TEST(BatchedCampaign, BankVerdictsIdenticalScalarVsBatched) {
  auto config = small_config();
  config.macro_selection = "bank";
  config.bank_size = 4;
  config.max_classes = 6;
  config.batch = 1;
  const auto scalar = flashadc::run_macro_campaign(config, "bank");
  config.batch = 4;
  const auto batched = flashadc::run_macro_campaign(config, "bank");
  EXPECT_GT(batched.batch_evaluated, 0u);
  expect_same_outcomes(scalar.catastrophic, batched.catastrophic, "bank cat");
  expect_same_outcomes(scalar.noncatastrophic, batched.noncatastrophic,
                       "bank noncat");
}

// ---------------------------------------------------------------------
// Degradation: a class whose prepass attempt hits the evaluation budget
// re-runs through the unchanged scalar attempt ladder.

struct PlanGuard {
  explicit PlanGuard(spice::InjectionPlan plan) {
    spice::set_injection_plan(std::move(plan));
  }
  ~PlanGuard() { spice::clear_injection_plan(); }
};

TEST(BatchedCampaign, EvictedMemberDegradesWithoutPoisoningBatch) {
  auto config = small_config();
  config.batch = 8;
  config.resilience.max_retries = 1;  // 2 attempts total
  spice::InjectionPlan plan;
  plan.mode = spice::InjectionPlan::Mode::kTimeout;
  plan.macro = "comparator";
  plan.class_indices = {0};
  PlanGuard guard(std::move(plan));

  const auto r = flashadc::run_macro_campaign(config, "comparator");
  ASSERT_FALSE(r.catastrophic.empty());
  // The sabotaged class left the prepass, spent its scalar retry budget
  // and was recorded unresolved -- exactly the scalar path's handling.
  const auto& sabotaged = r.catastrophic[0];
  EXPECT_EQ(sabotaged.status, flashadc::EvalStatus::kUnresolved);
  EXPECT_EQ(sabotaged.attempts, 2);
  // The rest of its chunk resolved normally on the first attempt.
  for (std::size_t i = 1; i < r.catastrophic.size(); ++i) {
    EXPECT_EQ(r.catastrophic[i].status, flashadc::EvalStatus::kOk)
        << "class " << i;
    EXPECT_EQ(r.catastrophic[i].attempts, 1) << "class " << i;
  }
  // The plan keys on the class index, which the noncatastrophic list
  // shares: its class 0 degrades the same way, the rest stay clean.
  for (std::size_t i = 1; i < r.noncatastrophic.size(); ++i)
    EXPECT_EQ(r.noncatastrophic[i].status, flashadc::EvalStatus::kOk)
        << "noncat class " << i;
}

}  // namespace
}  // namespace dot
