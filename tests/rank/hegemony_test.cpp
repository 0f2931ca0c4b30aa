#include "rank/hegemony.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace georank::rank {
namespace {

using bgp::AsPath;
using bgp::Prefix;
using sanitize::SanitizedPath;

SanitizedPath make_path(std::uint32_t vp_ip, AsPath path, const char* prefix,
                        std::uint64_t weight) {
  SanitizedPath sp;
  sp.vp = bgp::VpId{vp_ip, path[0]};
  sp.prefix = *Prefix::parse(prefix);
  sp.weight = weight;
  sp.path = std::move(path);
  return sp;
}

TEST(TrimmedAverage, PadsWithZeros) {
  Hegemony h;
  // One VP saw score 1.0, another saw nothing -> scores {1.0, 0.0};
  // n=2 < 3: no trim, mean = 0.5.
  EXPECT_DOUBLE_EQ(h.trimmed_average({1.0}, 2), 0.5);
}

TEST(TrimmedAverage, ThreeVpsTrimOneEachSide) {
  Hegemony h;
  // The Figure 2 rule: with three VP scores the top and bottom are
  // removed, leaving the middle value.
  EXPECT_DOUBLE_EQ(h.trimmed_average({1.0, 0.67, 0.33}, 3), 0.67);
}

TEST(TrimmedAverage, TenVpsTrimTenPercent) {
  Hegemony h;
  std::vector<double> scores{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 10.0};
  // Removes 0.0 and 10.0; mean of the middle 8 = 0.45.
  EXPECT_NEAR(h.trimmed_average(scores, 10), 0.45, 1e-9);
}

TEST(TrimmedAverage, EmptyVpSet) {
  Hegemony h;
  EXPECT_DOUBLE_EQ(h.trimmed_average({}, 0), 0.0);
}

TEST(TrimmedAverage, SingleVpNoTrim) {
  Hegemony h;
  EXPECT_DOUBLE_EQ(h.trimmed_average({0.8}, 1), 0.8);
}

/// The padded formulation: zeros up to vp_count, sort all, trim, sum.
double padded_trimmed_average(std::vector<double> scores, std::size_t vp_count,
                              double trim) {
  if (vp_count == 0) return 0.0;
  scores.resize(vp_count, 0.0);
  std::sort(scores.begin(), scores.end());
  std::size_t cut = 0;
  if (vp_count >= 3) {
    cut = std::max<std::size_t>(1, static_cast<std::size_t>(
                                       trim * static_cast<double>(vp_count)));
  }
  if (2 * cut >= vp_count) cut = (vp_count - 1) / 2;
  double sum = 0.0;
  for (std::size_t i = cut; i < vp_count - cut; ++i) sum += scores[i];
  return sum / static_cast<double>(vp_count - 2 * cut);
}

TEST(TrimmedAverage, BitIdenticalToPaddedFormulation) {
  util::Pcg32 rng{0x7a1dull};
  std::size_t clamped = 0;
  // trim 0.10 is the paper's; 0.45 and 0.6 clamp the cut on most sizes.
  for (const double trim : {0.10, 0.25, 0.45, 0.6}) {
    const Hegemony h{HegemonyOptions{trim}};
    for (int round = 0; round < 500; ++round) {
      const std::size_t vp_count = rng.below(40);  // includes 0, 1 and 2
      const std::size_t observed = vp_count == 0 ? 0 : rng.below(
                                       static_cast<std::uint32_t>(vp_count) + 1);
      const bool all_zero = rng.chance(0.1);
      std::vector<double> scores;
      for (std::size_t i = 0; i < observed; ++i) {
        // Observed zeros mix with the padding zeros in the sorted order.
        scores.push_back(all_zero || rng.chance(0.2) ? 0.0 : rng.uniform());
      }
      if (vp_count >= 3 &&
          2 * static_cast<std::size_t>(trim * static_cast<double>(vp_count)) >=
              vp_count) {
        ++clamped;
      }
      const double want = padded_trimmed_average(scores, vp_count, trim);
      const double got = h.trimmed_average(scores, vp_count);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "trim " << trim << " round " << round << " vp_count " << vp_count
          << " observed " << observed;
    }
  }
  EXPECT_GT(clamped, 0u);
}

TEST(Hegemony, SingleVpFractions) {
  Hegemony h;
  std::vector<SanitizedPath> paths{
      make_path(1, AsPath{10, 20, 30}, "10.0.0.0/24", 100),
      make_path(1, AsPath{10, 20, 31}, "10.0.1.0/24", 100),
      make_path(1, AsPath{10, 21, 32}, "10.0.2.0/24", 200),
  };
  HegemonyResult r = h.compute(paths);
  EXPECT_EQ(r.vp_count, 1u);
  EXPECT_DOUBLE_EQ(r.score_of(10), 1.0);           // on every path
  EXPECT_DOUBLE_EQ(r.score_of(20), 0.5);           // 200/400
  EXPECT_DOUBLE_EQ(r.score_of(21), 0.5);           // 200/400
  EXPECT_DOUBLE_EQ(r.score_of(30), 0.25);          // 100/400
  EXPECT_DOUBLE_EQ(r.score_of(99), 0.0);
}

TEST(Hegemony, AbsentAsScoresZeroAtOtherVps) {
  Hegemony h;
  // AS 50 only appears at VP 1; VP 2 contributes a zero for it.
  std::vector<SanitizedPath> paths{
      make_path(1, AsPath{10, 50, 30}, "10.0.0.0/24", 100),
      make_path(2, AsPath{11, 30}, "10.0.0.0/24", 100),
  };
  HegemonyResult r = h.compute(paths);
  EXPECT_EQ(r.vp_count, 2u);
  // n=2: no trim. Scores for 50: {1.0 (vp1), 0.0 (vp2)} -> 0.5.
  EXPECT_DOUBLE_EQ(r.score_of(50), 0.5);
  EXPECT_DOUBLE_EQ(r.score_of(30), 1.0);
}

TEST(Hegemony, TrimSuppressesVpProximityBias) {
  Hegemony h;
  // AS 60 is the first hop of exactly one VP (score 1.0 there) and absent
  // at nine others: with 10 VPs the 1.0 gets trimmed away entirely.
  std::vector<SanitizedPath> paths;
  paths.push_back(make_path(1, AsPath{60, 30}, "10.0.0.0/24", 100));
  for (std::uint32_t vp = 2; vp <= 10; ++vp) {
    paths.push_back(make_path(vp, AsPath{vp + 100, 30}, "10.0.0.0/24", 100));
  }
  HegemonyResult r = h.compute(paths);
  EXPECT_EQ(r.vp_count, 10u);
  EXPECT_DOUBLE_EQ(r.score_of(60), 0.0);
  EXPECT_DOUBLE_EQ(r.score_of(30), 1.0);  // trimming symmetric values keeps 1
}

TEST(Hegemony, WeightsByAddresses) {
  Hegemony h;
  std::vector<SanitizedPath> paths{
      make_path(1, AsPath{10, 20}, "10.0.0.0/22", 1024),
      make_path(1, AsPath{10, 21}, "10.1.0.0/24", 256),
  };
  HegemonyResult r = h.compute(paths);
  EXPECT_DOUBLE_EQ(r.score_of(20), 1024.0 / 1280.0);
  EXPECT_DOUBLE_EQ(r.score_of(21), 256.0 / 1280.0);
}

TEST(Hegemony, UnweightedVariantIgnoresPrefixSizes) {
  HegemonyOptions options;
  options.weight_by_addresses = false;
  Hegemony h{options};
  // A huge prefix behind 20 and a tiny one behind 21: unweighted, both
  // paths count the same.
  std::vector<SanitizedPath> paths{
      make_path(1, AsPath{10, 20}, "10.0.0.0/22", 1024),
      make_path(1, AsPath{10, 21}, "10.1.0.0/24", 256),
  };
  HegemonyResult r = h.compute(paths);
  EXPECT_DOUBLE_EQ(r.score_of(20), 0.5);
  EXPECT_DOUBLE_EQ(r.score_of(21), 0.5);
  // The default weighting favors the large prefix (see WeightsByAddresses).
}

TEST(Hegemony, ExcludeVpAsOption) {
  HegemonyOptions options;
  options.exclude_vp_as = true;
  Hegemony h{options};
  std::vector<SanitizedPath> paths{
      make_path(1, AsPath{10, 20}, "10.0.0.0/24", 100),
  };
  HegemonyResult r = h.compute(paths);
  EXPECT_DOUBLE_EQ(r.score_of(10), 0.0);
  EXPECT_DOUBLE_EQ(r.score_of(20), 1.0);
}

TEST(Hegemony, RankingOrders) {
  Hegemony h;
  std::vector<SanitizedPath> paths{
      make_path(1, AsPath{10, 20, 30}, "10.0.0.0/24", 100),
      make_path(1, AsPath{10, 20, 31}, "10.0.1.0/24", 100),
  };
  Ranking ranking = h.compute(paths).ranking();
  ASSERT_GE(ranking.size(), 2u);
  EXPECT_EQ(ranking.entries()[0].asn, 10u);  // ties broken by ASN: 10 < 20
  EXPECT_EQ(ranking.entries()[1].asn, 20u);
}

TEST(Hegemony, EmptyInput) {
  Hegemony h;
  HegemonyResult r = h.compute({});
  EXPECT_EQ(r.vp_count, 0u);
  EXPECT_TRUE(r.scores.empty());
}

}  // namespace
}  // namespace georank::rank
