// Differential properties of the batched sibling-fault evaluation
// path: transient batches must agree with the scalar engine exactly on
// DC operating points and whole waveforms (both integrate on the same
// transient kernel), campaigns must produce identical verdicts at every
// batch size, and a batch member hitting its evaluation budget must
// degrade to the scalar attempt ladder without poisoning its
// batch-mates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "flashadc/bank.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "spice/batch.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"
#include "spice/resilience.hpp"
#include "spice/transient.hpp"

namespace dot {
namespace {

// ---------------------------------------------------------------------
// Engine level: run_transient_batch vs the scalar transient engine.

// Sibling variants of the comparator bench, the shape the campaign
// batches: input-level sweeps (RHS-only differences, one pattern
// group) plus bridge-fault variants (extra resistor, new pattern).
std::vector<spice::Netlist> bench_variants() {
  const auto macro = flashadc::build_comparator_netlist();
  std::vector<spice::Netlist> variants;
  for (const double dv : {-0.3, -0.009, 0.009, 0.3})
    variants.push_back(flashadc::instantiate_comparator_bench(macro, dv));
  for (const double ohms : {150.0, 2e4}) {
    auto faulty = macro;
    faulty.add_resistor("rbridge", "outp", "outn", ohms);
    variants.push_back(flashadc::instantiate_comparator_bench(faulty, 0.05));
  }
  return variants;
}

// Every state of every step, bit for bit: a batched run against the
// scalar transient() of the same netlist.
void expect_same_waveforms(const spice::TranResult& batched,
                           const spice::TranResult& scalar,
                           const std::string& what) {
  ASSERT_EQ(batched.steps(), scalar.steps()) << what;
  for (std::size_t s = 0; s < scalar.steps(); ++s) {
    ASSERT_EQ(batched.time(s), scalar.time(s)) << what << " step " << s;
    // Step 0 is the DC operating point when start_from_dc is set, so
    // this also pins the batched DC path to the scalar one.
    ASSERT_EQ(batched.state(s), scalar.state(s)) << what << " step " << s;
  }
}

spice::TranResult run_one_member(const spice::Netlist& netlist,
                                 const spice::TranOptions& options) {
  spice::BatchJob job;
  job.netlist = &netlist;
  job.options = options;
  job.scope_macro = "batch_property";
  const auto outcomes = spice::run_transient_batch({job});
  EXPECT_TRUE(outcomes.at(0).completed && outcomes.at(0).converged)
      << outcomes.at(0).error;
  return *outcomes.at(0).result;
}

// One job per variant, each its own fault class.
std::vector<spice::BatchJob> variant_jobs(
    const std::vector<spice::Netlist>& variants,
    const spice::TranOptions& options) {
  std::vector<spice::BatchJob> jobs;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    spice::BatchJob job;
    job.netlist = &variants[i];
    job.options = options;
    job.scope_macro = "batch_property";
    job.scope_class = i;
    jobs.push_back(job);
  }
  return jobs;
}

TEST(BatchedTransient, WaveformsMatchScalarExactly) {
  const auto variants = bench_variants();
  const auto options = flashadc::comparator_tran_options();

  const auto jobs = variant_jobs(variants, options);
  const auto outcomes = spice::run_transient_batch(jobs);
  ASSERT_EQ(outcomes.size(), variants.size());

  for (std::size_t i = 0; i < variants.size(); ++i) {
    ASSERT_TRUE(outcomes[i].completed) << outcomes[i].error;
    ASSERT_TRUE(outcomes[i].converged) << outcomes[i].error;
    expect_same_waveforms(*outcomes[i].result,
                          spice::transient(variants[i], options),
                          "variant " + std::to_string(i));
  }
}

// The streaming overload hands each outcome over once, in job order,
// as soon as its job finishes: the outcome the collecting overload
// returns.
TEST(BatchedTransient, SinkReceivesEveryOutcomeOnceInJobOrder) {
  const auto variants = bench_variants();
  const auto options = flashadc::comparator_tran_options();
  const auto jobs = variant_jobs(variants, options);

  std::vector<std::size_t> order;
  std::vector<spice::BatchJobOutcome> streamed;
  spice::run_transient_batch(
      jobs, [&](std::size_t i, spice::BatchJobOutcome outcome) {
        order.push_back(i);
        streamed.push_back(std::move(outcome));
      });
  ASSERT_EQ(order.size(), jobs.size());
  const auto collected = spice::run_transient_batch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(order[i], i);
    ASSERT_TRUE(streamed[i].completed && streamed[i].converged)
        << streamed[i].error;
    expect_same_waveforms(*streamed[i].result, *collected[i].result,
                          "variant " + std::to_string(i));
  }
}

// The scalar transient() and a one-member batch run one kernel: equal
// waveforms on all four decision-grid points of the comparator bench.
// The bench has 39 unknowns, so the default threshold must pick the
// sparse path.
TEST(TransientKernel, ComparatorScalarEqualsOneMemberBatch) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto options = flashadc::comparator_tran_options();
  ASSERT_LT(options.solver.sparse_threshold, 39u);
  for (const double dv : flashadc::kDecisionGrid) {
    const auto bench = flashadc::instantiate_comparator_bench(macro, dv);
    const auto scalar = spice::transient(bench, options);
    EXPECT_EQ(scalar.stats().unknowns, 39u);
    EXPECT_TRUE(scalar.stats().sparse) << "dv " << dv;
    expect_same_waveforms(run_one_member(bench, options), scalar,
                          "dv " + std::to_string(dv));
  }
}

// Same on an 8-slice bank bench carrying an inter-slice bridge fault
// (integrated from the zero state, like the bank campaign).
TEST(TransientKernel, BankScalarEqualsOneMemberBatchWithBridge) {
  flashadc::BankOptions bank;
  bank.size = 8;
  auto macro = flashadc::build_bank_netlist(bank);
  ASSERT_TRUE(macro.find_node("s3_outp").has_value());
  ASSERT_TRUE(macro.find_node("s4_outn").has_value());
  macro.add_resistor("rbridge", "s3_outp", "s4_outn", 500.0);
  const auto bench = flashadc::instantiate_bank_bench(macro, bank, 3, 0.009);
  const auto options = flashadc::bank_tran_options();
  const auto scalar = spice::transient(bench, options);
  EXPECT_TRUE(scalar.stats().sparse);
  expect_same_waveforms(run_one_member(bench, options), scalar, "bank-8");
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
// Degradation: a member hitting the evaluation budget is evicted from
// the batch and re-runs through the unchanged scalar attempt ladder.

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
  // The sabotaged class left the batch, spent its scalar retry budget
  // and was recorded unresolved -- exactly the scalar path's handling.
  const auto& sabotaged = r.catastrophic[0];
  EXPECT_EQ(sabotaged.status, flashadc::EvalStatus::kUnresolved);
  EXPECT_EQ(sabotaged.attempts, 2);
  // Its batch-mates resolved normally on the first attempt.
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
