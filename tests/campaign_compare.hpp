// Helpers shared by the campaign-level differential tests
// (batch_property_test, transient_kernel_test): a small comparator
// campaign and an outcome-by-outcome comparison.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "flashadc/campaign.hpp"

namespace dot {

/// A small comparator campaign: 20k defects, 6 envelope samples, the
/// 12 likeliest classes.
inline flashadc::CampaignConfig small_config() {
  flashadc::CampaignConfig config;
  config.defect_count = 20000;
  config.seed = 11;
  config.envelope_samples = 6;
  config.max_classes = 12;
  return config;
}

/// Requires equal signatures, detection, status and attempts, class by
/// class.
inline void expect_same_outcomes(const std::vector<flashadc::FaultOutcome>& a,
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
    EXPECT_EQ(a[i].attempts, b[i].attempts) << what << " class " << i;
  }
}

}  // namespace dot
