#include "bgp/as_path.hpp"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "bgp/route.hpp"
#include "geo/prefix_geolocator.hpp"
#include "geo/vp_geolocator.hpp"
#include "sanitize/asn_registry.hpp"
#include "sanitize/filter_detail.hpp"
#include "util/rng.hpp"

namespace georank::bgp {
namespace {

TEST(AsPath, EndpointsFollowConvention) {
  AsPath p{701, 3356, 1299, 64512};
  EXPECT_EQ(p.vp_as(), 701u);
  EXPECT_EQ(p.origin(), 64512u);
  EXPECT_EQ(p.size(), 4u);
}

TEST(AsPath, Contains) {
  AsPath p{701, 3356, 1299};
  EXPECT_TRUE(p.contains(3356));
  EXPECT_FALSE(p.contains(174));
}

TEST(AsPath, CollapsesPrepending) {
  AsPath p{701, 701, 3356, 3356, 3356, 1299};
  EXPECT_EQ(p.without_adjacent_duplicates(), (AsPath{701, 3356, 1299}));
}

TEST(AsPath, CollapseIdempotentOnCleanPath) {
  AsPath p{701, 3356, 1299};
  EXPECT_EQ(p.without_adjacent_duplicates(), p);
}

TEST(AsPath, DetectsNonAdjacentDuplicate) {
  EXPECT_TRUE((AsPath{701, 3356, 701}).has_nonadjacent_duplicate());
  EXPECT_FALSE((AsPath{701, 701, 3356}).has_nonadjacent_duplicate());
  EXPECT_FALSE((AsPath{701, 3356, 1299}).has_nonadjacent_duplicate());
  // Prepending in the middle is not a loop.
  EXPECT_FALSE((AsPath{701, 3356, 3356, 1299}).has_nonadjacent_duplicate());
  // ... but "A B B A" is.
  EXPECT_TRUE((AsPath{701, 3356, 3356, 701}).has_nonadjacent_duplicate());
}

// Naive loop oracle in the shape of BGPExtrapolator's path_contains_loop:
// a double loop over the prepend-collapsed hops, with the `size() - 1`
// bound guarded so an empty path does not underflow it.
bool naive_loop(const AsPath& path) {
  const AsPath collapsed = path.without_adjacent_duplicates();
  const std::span<const Asn> hops = collapsed.hops();
  if (hops.empty()) return false;
  for (std::size_t i = 0; i < hops.size() - 1; ++i) {
    for (std::size_t j = i + 1; j < hops.size(); ++j) {
      if (hops[i] == hops[j]) return true;
    }
  }
  return false;
}

// A second oracle that shares no code with AsPath: collapse the
// prepends by hand, then look for an AS seen twice.
bool seen_set_loop(std::span<const Asn> hops) {
  std::vector<Asn> collapsed;
  for (const Asn hop : hops) {
    if (collapsed.empty() || collapsed.back() != hop) collapsed.push_back(hop);
  }
  std::unordered_set<Asn> seen;
  for (const Asn hop : collapsed) {
    if (!seen.insert(hop).second) return true;
  }
  return false;
}

TEST(AsPath, NonadjacentDuplicateMatchesNaiveOracle) {
  util::Pcg32 rng{2301};
  std::size_t loops = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    // Lengths 0-40 over a small alphabet, so repeats are common, with
    // runs of 1-3 copies standing in for prepending.
    const std::uint32_t length = rng.below(41);
    const std::uint32_t alphabet = 2 + rng.below(30);
    AsPath path;
    while (path.size() < length) {
      const Asn hop = 64500 + rng.below(alphabet);
      for (std::uint32_t copies = 1 + rng.below(3);
           copies > 0 && path.size() < length; --copies) {
        path.push_back(hop);
      }
    }
    const bool expected = naive_loop(path);
    ASSERT_EQ(seen_set_loop(path.hops()), expected) << path.to_string();
    ASSERT_EQ(path.has_nonadjacent_duplicate(), expected) << path.to_string();
    loops += expected ? 1 : 0;
  }
  // Both verdicts are exercised.
  EXPECT_GT(loops, 1000u);
  EXPECT_LT(loops, 19000u);
}

/// `path` as the sanitizer cleans it (route servers `rs` stripped,
/// prepending collapsed): sanitize::detail::classify on a one-entry
/// world that accepts the entry.
AsPath cleaned_by_sanitizer(const AsPath& path, std::vector<Asn> rs) {
  const VpId vp{1, path.vp_as()};
  const Prefix prefix{0x0A000000, 24};
  const geo::CountryCode au = geo::CountryCode::of("AU");
  const sanitize::detail::DayCounts days{{prefix, sanitize::detail::PrefixDays{1, 0, 1}}};
  geo::PrefixGeoResult prefix_geo;
  prefix_geo.accepted.push_back(geo::PrefixAssignment{prefix, au, prefix.size()});
  prefix_geo.index.emplace(prefix, 0);
  const sanitize::detail::CoveredSet covered;
  const sanitize::detail::FilterWorld world{&days, 1, {}, &prefix_geo, &covered};
  geo::VpGeolocator vps;
  vps.add_collector(geo::Collector{"rrc00", au, false});
  vps.register_vp(vp, "rrc00");
  sanitize::SanitizerOptions options;
  options.route_server_asns = std::move(rs);
  std::vector<Asn> cleaned;
  const sanitize::detail::Verdict verdict = sanitize::detail::classify(
      vp, prefix, path, world, vps, sanitize::AsnRegistry::permissive(), options,
      cleaned);
  EXPECT_EQ(verdict.reason, sanitize::FilterReason::kAccepted);
  return AsPath{std::move(cleaned)};
}

TEST(AsPath, RemovesRouteServers) {
  AsPath p{701, 6777, 3356, 1299};
  std::vector<Asn> rs{6777};
  EXPECT_EQ(cleaned_by_sanitizer(p, rs), (AsPath{701, 3356, 1299}));
}

TEST(AsPath, RemoveAbsentAsIsNoop) {
  AsPath p{701, 3356};
  std::vector<Asn> rs{9999};
  EXPECT_EQ(cleaned_by_sanitizer(p, rs), p);
}

TEST(AsPath, ToStringAndParse) {
  AsPath p{701, 3356, 1299};
  EXPECT_EQ(p.to_string(), "701 3356 1299");
  auto parsed = AsPath::parse("701 3356 1299");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

TEST(AsPath, ParseRejectsJunk) {
  EXPECT_FALSE(AsPath::parse("701 abc 1299").has_value());
  EXPECT_FALSE(AsPath::parse("701 -3 1299").has_value());
}

TEST(AsPath, ParseFlattensAsSet) {
  // bgpdump renders AS_SETs as {a,b}; the members are flattened in order
  // and the path is marked so the sanitizer can reject it downstream.
  auto p = AsPath::parse("701 {64512,64513} 1299");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->has_as_set());
  EXPECT_EQ(p->to_string(), "701 64512 64513 1299");
  // Equality sees the mark: same hops without it are a different path.
  EXPECT_FALSE(*p == (AsPath{701, 64512, 64513, 1299}));
}

TEST(AsPath, ParseSingletonAsSet) {
  auto p = AsPath::parse("{64512}");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->has_as_set());
  EXPECT_EQ(p->size(), 1u);
  EXPECT_EQ((*p)[0], 64512u);
}

TEST(AsPath, ParseRejectsMalformedAsSet) {
  EXPECT_FALSE(AsPath::parse("701 {").has_value());
  EXPECT_FALSE(AsPath::parse("701 {}").has_value());
  EXPECT_FALSE(AsPath::parse("701 {64512").has_value());
  EXPECT_FALSE(AsPath::parse("701 {64512,").has_value());
  EXPECT_FALSE(AsPath::parse("701 {64512,}").has_value());
  EXPECT_FALSE(AsPath::parse("701 {64512 64513}").has_value());
}

TEST(AsPath, AsSetMarkSurvivesCleaning) {
  auto p = AsPath::parse("701 701 {64512,64513} 1299");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->without_adjacent_duplicates().has_as_set());
}

TEST(AsPath, FlattenedRoundTripLosesTheMark) {
  // to_string is lossy by design: the flattened text reparses as a plain
  // path. The mark only travels in-memory (and via MrtParseStats).
  auto p = AsPath::parse("{64512,64513}");
  ASSERT_TRUE(p.has_value());
  auto reparsed = AsPath::parse(p->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_FALSE(reparsed->has_as_set());
}

TEST(AsPath, ParseEmptyIsEmptyPath) {
  auto p = AsPath::parse("");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(AsPath, PushBack) {
  AsPath p;
  p.push_back(1);
  p.push_back(2);
  EXPECT_EQ(p, (AsPath{1, 2}));
}

}  // namespace
}  // namespace georank::bgp
