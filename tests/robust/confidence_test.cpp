#include "core/confidence.hpp"

#include <gtest/gtest.h>

namespace georank::core {
namespace {

TEST(ConfidenceTier, ToStringCoversAllTiers) {
  EXPECT_EQ(to_string(ConfidenceTier::kHigh), "high");
  EXPECT_EQ(to_string(ConfidenceTier::kDegraded), "degraded");
  EXPECT_EQ(to_string(ConfidenceTier::kInsufficient), "insufficient");
}

TEST(ConfidenceTier, WorstIsMax) {
  EXPECT_EQ(worst(ConfidenceTier::kHigh, ConfidenceTier::kHigh),
            ConfidenceTier::kHigh);
  EXPECT_EQ(worst(ConfidenceTier::kHigh, ConfidenceTier::kDegraded),
            ConfidenceTier::kDegraded);
  EXPECT_EQ(worst(ConfidenceTier::kInsufficient, ConfidenceTier::kDegraded),
            ConfidenceTier::kInsufficient);
  EXPECT_EQ(worst(ConfidenceTier::kDegraded, ConfidenceTier::kInsufficient),
            ConfidenceTier::kInsufficient);
}

TEST(DegradationPolicy, ViewTierThresholds) {
  DegradationPolicy policy;  // min_vps = 3
  EXPECT_EQ(policy.view_tier(0), ConfidenceTier::kInsufficient);
  EXPECT_EQ(policy.view_tier(1), ConfidenceTier::kDegraded);
  EXPECT_EQ(policy.view_tier(2), ConfidenceTier::kDegraded);
  EXPECT_EQ(policy.view_tier(3), ConfidenceTier::kHigh);
  EXPECT_EQ(policy.view_tier(100), ConfidenceTier::kHigh);
}

TEST(DegradationPolicy, ViewTierHonorsCustomMinimum) {
  DegradationPolicy policy;
  policy.min_vps = 5;
  EXPECT_EQ(policy.view_tier(4), ConfidenceTier::kDegraded);
  EXPECT_EQ(policy.view_tier(5), ConfidenceTier::kHigh);
}

TEST(DegradationPolicy, GeoTierThresholds) {
  DegradationPolicy policy;  // min_geo_consensus = 0.5
  EXPECT_EQ(policy.geo_tier(0, 0), ConfidenceTier::kInsufficient);
  EXPECT_EQ(policy.geo_tier(0, 100), ConfidenceTier::kInsufficient);
  // Exactly at the threshold counts as consensus (the paper's >= 50%).
  EXPECT_EQ(policy.geo_tier(100, 100), ConfidenceTier::kHigh);
  EXPECT_EQ(policy.geo_tier(99, 101), ConfidenceTier::kDegraded);
  EXPECT_EQ(policy.geo_tier(100, 0), ConfidenceTier::kHigh);
}

TEST(DegradationPolicy, GeoConsensusShare) {
  EXPECT_DOUBLE_EQ(DegradationPolicy::geo_consensus_share(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(DegradationPolicy::geo_consensus_share(3, 1), 0.75);
  EXPECT_DOUBLE_EQ(DegradationPolicy::geo_consensus_share(0, 5), 0.0);
}

TEST(DegradationPolicy, CountryTierGatesOnInternationalAndGeo) {
  DegradationPolicy policy;
  // Strong everything -> high.
  EXPECT_EQ(policy.country_tier(3, 5, 100, 0), ConfidenceTier::kHigh);
  // No international view -> insufficient no matter the rest.
  EXPECT_EQ(policy.country_tier(10, 0, 100, 0), ConfidenceTier::kInsufficient);
  // No geo evidence -> insufficient.
  EXPECT_EQ(policy.country_tier(3, 5, 0, 0), ConfidenceTier::kInsufficient);
  // Thin international view degrades.
  EXPECT_EQ(policy.country_tier(3, 2, 100, 0), ConfidenceTier::kDegraded);
  // Failed geo consensus degrades.
  EXPECT_EQ(policy.country_tier(3, 5, 10, 90), ConfidenceTier::kDegraded);
}

TEST(DegradationPolicy, WeakNationalViewOnlyDegrades) {
  DegradationPolicy policy;
  // Most countries host no VP (§3.2): a missing national view must cap
  // the tier at degraded, never push it to insufficient.
  EXPECT_EQ(policy.country_tier(0, 5, 100, 0), ConfidenceTier::kDegraded);
  EXPECT_EQ(policy.country_tier(1, 5, 100, 0), ConfidenceTier::kDegraded);
  // ...and it does not resurrect an already-degraded country.
  EXPECT_EQ(policy.country_tier(0, 2, 100, 0), ConfidenceTier::kDegraded);
  EXPECT_EQ(policy.country_tier(0, 0, 100, 0), ConfidenceTier::kInsufficient);
}

}  // namespace
}  // namespace georank::core
