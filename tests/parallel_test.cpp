// The parallel execution layer and the determinism contract: campaign
// results must be bit-identical no matter how many threads run them.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "defect/simulate.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/comparator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dot {
namespace {

/// Runs fn under a global pool of `threads`, restoring the hardware
/// default afterwards even if fn throws.
template <typename Fn>
auto with_threads(unsigned threads, Fn&& fn) {
  util::ThreadPool::set_global_thread_count(threads);
  struct Restore {
    ~Restore() { util::ThreadPool::set_global_thread_count(0); }
  } restore;
  return fn();
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  util::parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  auto mapped = util::parallel_map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(mapped.empty());
}

TEST(ThreadPool, MapPreservesOrderAtAnyThreadCount) {
  for (unsigned threads : {1u, 2u, 7u}) {
    auto result = with_threads(threads, [] {
      return util::parallel_map(1000, [](std::size_t i) { return 3 * i + 1; });
    });
    ASSERT_EQ(result.size(), 1000u);
    for (std::size_t i = 0; i < result.size(); ++i)
      EXPECT_EQ(result[i], 3 * i + 1);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  for (unsigned threads : {1u, 4u}) {
    EXPECT_THROW(with_threads(threads,
                              [] {
                                util::parallel_for(100, [](std::size_t i) {
                                  if (i == 37)
                                    throw std::runtime_error("boom");
                                });
                                return 0;
                              }),
                 std::runtime_error);
  }
}

TEST(ThreadPool, NestedParallelSectionsComplete) {
  auto totals = with_threads(3, [] {
    return util::parallel_map(8, [](std::size_t) {
      auto inner =
          util::parallel_map(50, [](std::size_t i) { return i + 1; });
      return std::accumulate(inner.begin(), inner.end(), std::size_t{0});
    });
  });
  for (std::size_t total : totals) EXPECT_EQ(total, 50u * 51u / 2u);
}

TEST(ThreadPool, SubmitFromWorkerDoesNotDeadlock) {
  with_threads(2, [] {
    std::atomic<int> ran{0};
    util::parallel_for(4, [&](std::size_t) {
      util::ThreadPool::global().submit([&ran] { ++ran; });
    });
    // The submitted jobs are drained by the pool workers; spin briefly.
    for (int spin = 0; spin < 10000 && ran.load() < 4; ++spin)
      std::this_thread::yield();
    EXPECT_EQ(ran.load(), 4);
    return 0;
  });
}

TEST(RngSplit, DeterministicAndConst) {
  util::Rng master(42);
  util::Rng a = master.split(7);
  util::Rng b = util::Rng(42).split(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
  // split() does not advance the master stream.
  util::Rng untouched(42);
  EXPECT_EQ(master(), untouched());
  // Distinct stream ids give distinct streams.
  util::Rng c = util::Rng(42).split(8);
  util::Rng d = util::Rng(42).split(7);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += c() != d();
  EXPECT_GT(differing, 0);
}

bool same_outcomes(const std::vector<flashadc::FaultOutcome>& a,
                   const std::vector<flashadc::FaultOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cls.representative.key() != b[i].cls.representative.key() ||
        a[i].cls.count != b[i].cls.count ||
        a[i].non_catastrophic != b[i].non_catastrophic ||
        a[i].voltage != b[i].voltage ||
        a[i].current.ivdd != b[i].current.ivdd ||
        a[i].current.iddq != b[i].current.iddq ||
        a[i].current.iinput != b[i].current.iinput ||
        a[i].detection.missing_code != b[i].detection.missing_code)
      return false;
  }
  return true;
}

bool same_campaign(const flashadc::MacroCampaignResult& a,
                   const flashadc::MacroCampaignResult& b) {
  if (a.defects.faults_extracted != b.defects.faults_extracted ||
      a.defects.classes.size() != b.defects.classes.size())
    return false;
  for (std::size_t i = 0; i < a.defects.classes.size(); ++i) {
    if (a.defects.classes[i].representative.key() !=
            b.defects.classes[i].representative.key() ||
        a.defects.classes[i].count != b.defects.classes[i].count)
      return false;
  }
  return same_outcomes(a.catastrophic, b.catastrophic) &&
         same_outcomes(a.noncatastrophic, b.noncatastrophic);
}

TEST(Determinism, DefectCampaignIsThreadCountInvariant) {
  const auto cell = flashadc::build_comparator_layout();
  defect::CampaignOptions opt;
  opt.defect_count = 20000;
  opt.seed = 77;
  opt.vdd_net = "vdda";
  opt.statistics.clustering.cluster_fraction = 0.2;  // exercise clusters
  const auto serial =
      with_threads(1, [&] { return defect::run_campaign(cell, opt); });
  const auto parallel =
      with_threads(5, [&] { return defect::run_campaign(cell, opt); });
  EXPECT_EQ(serial.faults_extracted, parallel.faults_extracted);
  ASSERT_EQ(serial.classes.size(), parallel.classes.size());
  for (std::size_t i = 0; i < serial.classes.size(); ++i) {
    EXPECT_EQ(serial.classes[i].representative.key(),
              parallel.classes[i].representative.key());
    EXPECT_EQ(serial.classes[i].count, parallel.classes[i].count);
  }
}

TEST(Determinism, ComparatorCampaignIsThreadCountInvariant) {
  flashadc::CampaignConfig config;
  config.defect_count = 1500;
  config.envelope_samples = 3;
  config.max_classes = 3;
  config.seed = 7;
  const auto serial = with_threads(
      1, [&] { return flashadc::run_macro_campaign(config, "comparator"); });
  const auto parallel = with_threads(
      4, [&] { return flashadc::run_macro_campaign(config, "comparator"); });
  EXPECT_TRUE(same_campaign(serial, parallel));
  ASSERT_FALSE(serial.catastrophic.empty());
}

}  // namespace
}  // namespace dot
