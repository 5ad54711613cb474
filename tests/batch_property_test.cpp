// Properties of the class loop around CampaignConfig::batch, the field
// the campaign benchmark sets: it changes no verdict or attempt and
// only makes the loop count its first-try successes into
// batch_evaluated; a class that spends its evaluation budget climbs the
// attempt ladder without disturbing the other classes.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "campaign_compare.hpp"
#include "flashadc/campaign.hpp"
#include "spice/resilience.hpp"

namespace dot {
namespace {

// ---------------------------------------------------------------------
// Campaign level: identical verdicts at batch 1 and at batch 0, the
// benchmark's cross-check value.

TEST(BatchedCampaign, ComparatorVerdictsIdenticalAcrossBatchSizes) {
  auto config = small_config();
  config.batch = 1;
  const auto scalar = flashadc::run_macro_campaign(config, "comparator");
  EXPECT_EQ(scalar.batch_evaluated, 0u);
  config.batch = 0;
  const auto batched = flashadc::run_macro_campaign(config, "comparator");
  EXPECT_GT(batched.batch_evaluated, 0u);
  expect_same_outcomes(scalar.catastrophic, batched.catastrophic,
                       "catastrophic");
  expect_same_outcomes(scalar.noncatastrophic, batched.noncatastrophic,
                       "noncat");
  EXPECT_EQ(scalar.coverage(false), batched.coverage(false));
  EXPECT_EQ(scalar.coverage(true), batched.coverage(true));
}

TEST(BatchedCampaign, BankVerdictsIdenticalScalarVsBatched) {
  auto config = small_config();
  config.macro_selection = "bank";
  config.bank_size = 4;
  config.max_classes = 6;
  config.batch = 1;
  const auto scalar = flashadc::run_macro_campaign(config, "bank");
  config.batch = 0;
  const auto batched = flashadc::run_macro_campaign(config, "bank");
  EXPECT_GT(batched.batch_evaluated, 0u);
  expect_same_outcomes(scalar.catastrophic, batched.catastrophic, "bank cat");
  expect_same_outcomes(scalar.noncatastrophic, batched.noncatastrophic,
                       "bank noncat");
}

// ---------------------------------------------------------------------
// Degradation: a class that spends its evaluation budget runs the
// attempt ladder; the other classes resolve untouched.

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
  // The sabotaged class spent its retry budget and was recorded
  // unresolved.
  const auto& sabotaged = r.catastrophic[0];
  EXPECT_EQ(sabotaged.status, flashadc::EvalStatus::kUnresolved);
  EXPECT_EQ(sabotaged.attempts, 2);
  // The other classes resolved normally on the first attempt.
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
