#include "rank/customer_cone.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace georank::rank {
namespace {

using bgp::AsPath;
using bgp::Prefix;
using sanitize::SanitizedPath;

Prefix pfx(const char* text) { return *Prefix::parse(text); }

/// True when `member` is in `holder`'s cone. A holder that was never
/// seen fails the test: it has no cone to look in.
bool in_cone(const ConeResult& r, bgp::Asn holder, bgp::Asn member) {
  const std::vector<bgp::Asn> members = r.members(holder);
  EXPECT_FALSE(members.empty()) << "AS " << holder << " has no cone";
  return std::binary_search(members.begin(), members.end(), member);
}

SanitizedPath make_path(AsPath path, const char* prefix, std::uint64_t weight) {
  SanitizedPath sp;
  sp.vp = bgp::VpId{path[0], path[0]};
  sp.prefix = pfx(prefix);
  sp.weight = weight;
  sp.path = std::move(path);
  return sp;
}

TEST(ConeSuffix, StartsAfterLastNonP2cLink) {
  topo::AsGraph g;
  g.add_p2p(1, 2);
  g.add_p2c(2, 3);
  g.add_p2c(3, 4);
  CustomerCone cone{g};
  // 1-2 peer, 2-3 p2c, 3-4 p2c: suffix starts at index 1 (AS 2).
  EXPECT_EQ(cone.cone_suffix_start(AsPath{1, 2, 3, 4}), 1u);
  // All p2c: whole path.
  EXPECT_EQ(cone.cone_suffix_start(AsPath{2, 3, 4}), 0u);
}

TEST(ConeSuffix, AscendingLinksExcluded) {
  topo::AsGraph g;
  g.add_p2c(2, 1);  // 1's provider is 2 (walking 1->2 ascends)
  g.add_p2c(2, 3);
  CustomerCone cone{g};
  // 1->2 is c2p (ascending), 2->3 is p2c: suffix starts at AS 2.
  EXPECT_EQ(cone.cone_suffix_start(AsPath{1, 2, 3}), 1u);
}

TEST(ConeSuffix, UnknownLinkTreatedAsNonP2c) {
  topo::AsGraph g;
  g.add_p2c(2, 3);
  g.add_as(1);
  CustomerCone cone{g};
  EXPECT_EQ(cone.cone_suffix_start(AsPath{1, 2, 3}), 1u);
}

TEST(ConeSuffix, OnlyOriginWhenLastLinkNotP2c) {
  topo::AsGraph g;
  g.add_p2p(1, 2);
  CustomerCone cone{g};
  EXPECT_EQ(cone.cone_suffix_start(AsPath{1, 2}), 1u);
}

TEST(CustomerCone, EveryAsInItsOwnCone) {
  topo::AsGraph g;
  g.add_p2p(1, 2);
  CustomerCone cone{g};
  std::vector<SanitizedPath> paths{make_path(AsPath{1, 2}, "10.0.0.0/24", 256)};
  ConeResult r = cone.compute(paths);
  EXPECT_TRUE(in_cone(r, 1, 1));
  EXPECT_TRUE(in_cone(r, 2, 2));
  // Peer-observed: 2 not in 1's cone.
  EXPECT_FALSE(in_cone(r, 1, 2));
}

TEST(CustomerCone, DownstreamAsesAndPrefixesCollected) {
  topo::AsGraph g;
  g.add_p2c(10, 20);
  g.add_p2c(20, 30);
  CustomerCone cone{g};
  std::vector<SanitizedPath> paths{make_path(AsPath{10, 20, 30}, "10.0.0.0/24", 256)};
  ConeResult r = cone.compute(paths);
  EXPECT_EQ(r.cone_size(10), 3u);  // 10, 20, 30
  EXPECT_EQ(r.cone_size(20), 2u);
  EXPECT_EQ(r.cone_size(30), 1u);
  EXPECT_EQ(r.cone_addresses(10), 256u);
  EXPECT_EQ(r.cone_addresses(30), 256u);  // origin covers its own prefix
}

TEST(CustomerCone, NotRecursivelyClosed) {
  // Ground truth has 10>20 and 20>30, but observed paths never show 30
  // downstream of 10: 30 must NOT be in 10's cone (the paper's
  // anti-inflation rule, §1.1).
  topo::AsGraph g;
  g.add_p2c(10, 20);
  g.add_p2c(20, 30);
  g.add_p2c(40, 30);
  CustomerCone cone{g};
  std::vector<SanitizedPath> paths{
      make_path(AsPath{10, 20}, "10.0.0.0/24", 256),    // 20's own prefix
      make_path(AsPath{40, 30}, "10.1.0.0/24", 256),    // 30 via 40 only
  };
  ConeResult r = cone.compute(paths);
  EXPECT_TRUE(in_cone(r, 10, 20));
  EXPECT_FALSE(in_cone(r, 10, 30));
  EXPECT_TRUE(in_cone(r, 40, 30));
}

TEST(CustomerCone, PeerSegmentExcludedFromUpstreamCones) {
  topo::AsGraph g;
  g.add_p2c(2, 1);   // walking 1->2 ascends
  g.add_p2p(2, 3);   // peer at the top
  g.add_p2c(3, 4);
  CustomerCone cone{g};
  std::vector<SanitizedPath> paths{make_path(AsPath{1, 2, 3, 4}, "10.0.0.0/24", 256)};
  ConeResult r = cone.compute(paths);
  // Suffix is 3<4: only 3 gains 4.
  EXPECT_TRUE(in_cone(r, 3, 4));
  EXPECT_FALSE(in_cone(r, 2, 4));
  EXPECT_FALSE(in_cone(r, 2, 3));
  EXPECT_FALSE(in_cone(r, 1, 2));
}

TEST(CustomerCone, WeightsCountedOncePerPrefix) {
  topo::AsGraph g;
  g.add_p2c(10, 20);
  CustomerCone cone{g};
  std::vector<SanitizedPath> paths{
      make_path(AsPath{10, 20}, "10.0.0.0/24", 256),
      make_path(AsPath{10, 20}, "10.0.0.0/24", 256),  // same prefix again
      make_path(AsPath{10, 20}, "10.0.1.0/24", 256),
  };
  ConeResult r = cone.compute(paths);
  EXPECT_EQ(r.total_weight, 512u);
  EXPECT_EQ(r.cone_addresses(10), 512u);
}

TEST(CustomerCone, RankingByAddresses) {
  topo::AsGraph g;
  g.add_p2c(10, 20);
  g.add_p2c(10, 30);
  CustomerCone cone{g};
  std::vector<SanitizedPath> paths{
      make_path(AsPath{10, 20}, "10.0.0.0/24", 256),
      make_path(AsPath{10, 30}, "10.1.0.0/23", 512),
  };
  ConeResult r = cone.compute(paths);
  Ranking by_addr = r.by_addresses();
  EXPECT_EQ(by_addr.entries()[0].asn, 10u);
  EXPECT_DOUBLE_EQ(by_addr.score_of(10), 1.0);
  EXPECT_DOUBLE_EQ(by_addr.score_of(30), 512.0 / 768.0);
  EXPECT_DOUBLE_EQ(by_addr.score_of(20), 256.0 / 768.0);

  Ranking by_count = r.by_as_count();
  EXPECT_EQ(by_count.entries()[0].asn, 10u);
  EXPECT_DOUBLE_EQ(by_count.score_of(10), 3.0);
}

TEST(CustomerCone, EmptyInput) {
  topo::AsGraph g;
  CustomerCone cone{g};
  ConeResult r = cone.compute({});
  EXPECT_TRUE(r.by_as_count().empty());
  EXPECT_EQ(r.total_weight, 0u);
  EXPECT_TRUE(r.by_addresses().empty());
}

}  // namespace
}  // namespace georank::rank
