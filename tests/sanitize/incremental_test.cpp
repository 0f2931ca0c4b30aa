// IncrementalSanitizer: the full run must be indistinguishable from a
// batch PathSanitizer::run over the same collection — every row, every
// counter, every audit sample — and the delta path must decline on every
// precondition violation rather than silently diverge (the caller then
// falls back to the full run).
#include "sanitize/incremental_sanitizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sanitize/path_sanitizer.hpp"

namespace georank::sanitize {
namespace {

using bgp::AsPath;
using bgp::Prefix;
using bgp::RibCollection;
using bgp::RouteEntry;
using bgp::VpId;

Prefix pfx(const char* text) { return *Prefix::parse(text); }

constexpr VpId kVpUs{0x0A000001, 500};
constexpr VpId kVpAu{0x14000001, 600};

struct Fixture {
  geo::GeoDatabase geo_db;
  geo::VpGeolocator vps;
  AsnRegistry registry;
  RibCollection ribs;

  Fixture() {
    geo_db.add_range(pfx("10.0.0.0/8").first(), pfx("10.0.0.0/8").last(),
                     geo::CountryCode::of("US"));
    geo_db.add_range(pfx("20.0.0.0/8").first(), pfx("20.0.0.0/8").last(),
                     geo::CountryCode::of("AU"));
    geo_db.finalize();

    vps.add_collector({"us", geo::CountryCode::of("US"), false});
    vps.add_collector({"au", geo::CountryCode::of("AU"), false});
    vps.register_vp(kVpUs, "us");
    vps.register_vp(kVpAu, "au");

    registry.allocate_range(1, 1000);
    registry.finalize();

    ribs.days.resize(3);
    for (int d = 0; d < 3; ++d) ribs.days[d].day = d;
    add(kVpUs, "10.1.0.0/16", AsPath{1, 10});
    add(kVpAu, "10.1.0.0/16", AsPath{2, 11, 10});
    add(kVpUs, "20.1.0.0/16", AsPath{1, 2, 20});
    add(kVpAu, "20.1.0.0/16", AsPath{2, 20});
  }

  void add(const VpId& vp, const char* prefix, AsPath path, int days = 3) {
    for (int d = 0; d < days; ++d) {
      ribs.days[d].entries.push_back(RouteEntry{vp, pfx(prefix), path});
    }
  }

  void add_final_day(const VpId& vp, const char* prefix, AsPath path) {
    ribs.days.back().entries.push_back(RouteEntry{vp, pfx(prefix), path});
  }

  static SanitizerOptions options() {
    SanitizerOptions o;
    o.clique = {1, 2};
    o.samples_per_category = 2;
    return o;
  }

  /// No audit samples and a final day in (VP, prefix) order: the delta
  /// path's structural preconditions.
  static SanitizerOptions delta_options() {
    SanitizerOptions o = options();
    o.samples_per_category = 0;
    return o;
  }
  void sort_final_day() {
    std::vector<RouteEntry>& entries = ribs.days.back().entries;
    std::sort(entries.begin(), entries.end(),
              [](const RouteEntry& a, const RouteEntry& b) {
                return a.vp != b.vp ? a.vp < b.vp : a.prefix < b.prefix;
              });
  }

  [[nodiscard]] SanitizeResult batch(const SanitizerOptions& o = options()) const {
    PathSanitizer sanitizer{geo_db, vps, registry, o};
    return sanitizer.run(ribs);
  }
};

/// An empty delta against final day `day`: planned iff the memo is armed
/// at that day.
bool plans_empty_delta(const IncrementalSanitizer& inc, int day,
                       const SanitizeResult& current) {
  return inc.plan_delta(day, {}, current).has_value();
}

void expect_equal(const SanitizeResult& got, const SanitizeResult& want) {
  ASSERT_EQ(got.paths.size(), want.paths.size());
  for (std::size_t i = 0; i < got.paths.size(); ++i) {
    EXPECT_EQ(got.paths[i].vp, want.paths[i].vp) << "row " << i;
    EXPECT_EQ(got.paths[i].vp_country, want.paths[i].vp_country) << "row " << i;
    EXPECT_EQ(got.paths[i].prefix, want.paths[i].prefix) << "row " << i;
    EXPECT_EQ(got.paths[i].prefix_country, want.paths[i].prefix_country)
        << "row " << i;
    EXPECT_EQ(got.paths[i].weight, want.paths[i].weight) << "row " << i;
    EXPECT_EQ(got.paths[i].path, want.paths[i].path) << "row " << i;
  }
  EXPECT_EQ(got.stats.total, want.stats.total);
  EXPECT_EQ(got.stats.accepted, want.stats.accepted);
  EXPECT_EQ(got.stats.unstable, want.stats.unstable);
  EXPECT_EQ(got.stats.unallocated, want.stats.unallocated);
  EXPECT_EQ(got.stats.loop, want.stats.loop);
  EXPECT_EQ(got.stats.poisoned, want.stats.poisoned);
  EXPECT_EQ(got.stats.vp_no_location, want.stats.vp_no_location);
  EXPECT_EQ(got.stats.covered_prefix, want.stats.covered_prefix);
  EXPECT_EQ(got.stats.prefix_no_location, want.stats.prefix_no_location);
  EXPECT_EQ(got.stats.as_set, want.stats.as_set);
  EXPECT_EQ(got.stats.duplicates_merged, want.stats.duplicates_merged);
  EXPECT_EQ(got.clique, want.clique);
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    EXPECT_EQ(got.samples[i].reason, want.samples[i].reason) << "sample " << i;
    EXPECT_EQ(got.samples[i].day, want.samples[i].day) << "sample " << i;
    EXPECT_TRUE(got.samples[i].entry == want.samples[i].entry) << "sample " << i;
  }
}

TEST(IncrementalSanitizer, FullRunMatchesBatchAndReportsOutcome) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult result = inc.run_full(f.ribs);
  expect_equal(result, f.batch());
  // Audit samples are on, so no memo is captured and no delta plans.
  EXPECT_EQ(inc.interned_paths(), 0u);
  EXPECT_FALSE(plans_empty_delta(inc, f.ribs.days.back().day, result));
}

TEST(IncrementalSanitizer, StablePrefixVanishingFallsBackAndMatches) {
  Fixture f;
  f.sort_final_day();
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::delta_options()};
  const SanitizeResult current = inc.run_full(f.ribs);

  // Withdraw every final-day route for 20.1.0.0/16: its day count drops
  // below the stability threshold, the stable set changes, and the
  // cached PrefixGeoResult is no longer valid.
  std::vector<bgp::RouteDelta> deltas;
  auto& entries = f.ribs.days.back().entries;
  for (const RouteEntry& e : entries) {
    if (e.prefix == pfx("20.1.0.0/16")) {
      deltas.push_back(bgp::RouteDelta{e.vp, e.prefix, e.path, std::nullopt});
    }
  }
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_FALSE(inc.plan_delta(f.ribs.days.back().day, deltas, current).has_value());
  // Withdrawing one of the two keeps the prefix present: that plans.
  EXPECT_TRUE(inc.plan_delta(f.ribs.days.back().day,
                             std::span<const bgp::RouteDelta>{deltas.data(), 1},
                             current)
                  .has_value());

  std::erase_if(entries, [](const RouteEntry& e) {
    return e.prefix == pfx("20.1.0.0/16");
  });
  expect_equal(inc.run_full(f.ribs), f.batch(Fixture::delta_options()));
}

TEST(IncrementalSanitizer, HeadDayChangeFallsBack) {
  Fixture f;
  f.sort_final_day();
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::delta_options()};
  const SanitizeResult current = inc.run_full(f.ribs);
  // A delta names the final day only; one aimed at a head day declines.
  const bgp::RouteDelta added{kVpUs, pfx("10.2.0.0/16"), std::nullopt, AsPath{1, 13}};
  EXPECT_FALSE(inc.plan_delta(1, std::span<const bgp::RouteDelta>{&added, 1}, current)
                   .has_value());
  EXPECT_TRUE(plans_empty_delta(inc, f.ribs.days.back().day, current));
}

TEST(IncrementalSanitizer, DayCountChangeFallsBack) {
  Fixture f;
  f.sort_final_day();
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::delta_options()};
  const SanitizeResult current = inc.run_full(f.ribs);
  // A new day is not a delta to the memoized final day.
  f.ribs.days.push_back(bgp::RibSnapshot{3, {}});
  EXPECT_FALSE(plans_empty_delta(inc, 3, current));
  // The grown collection full-runs fine and re-arms the memo at day 3.
  const SanitizeResult result = inc.run_full(f.ribs);
  expect_equal(result, f.batch(Fixture::delta_options()));
  EXPECT_TRUE(plans_empty_delta(inc, 3, result));
  EXPECT_FALSE(plans_empty_delta(inc, 2, result));
}

TEST(IncrementalSanitizer, InferredCliqueNeverFastPaths) {
  Fixture f;
  f.sort_final_day();
  SanitizerOptions options = Fixture::delta_options();
  options.clique.clear();
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, options};
  const SanitizeResult result = inc.run_full(f.ribs);
  EXPECT_FALSE(plans_empty_delta(inc, f.ribs.days.back().day, result));

  // The full run still matches the batch sanitizer with inference on.
  PathSanitizer batch{f.geo_db, f.vps, f.registry, options};
  expect_equal(result, batch.run(f.ribs));
}

TEST(IncrementalSanitizer, InvalidateForcesFullRun) {
  Fixture f;
  f.sort_final_day();
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::delta_options()};
  const SanitizeResult result = inc.run_full(f.ribs);
  ASSERT_TRUE(plans_empty_delta(inc, f.ribs.days.back().day, result));
  inc.invalidate();
  EXPECT_FALSE(plans_empty_delta(inc, f.ribs.days.back().day, result));
}

TEST(IncrementalSanitizer, DeltaInternerStaysBounded) {
  // A delta-ready memo. Each burst moves one key to a path never seen
  // before, so the interner gains an id per burst while the live ids
  // stay put.
  Fixture f;
  f.sort_final_day();
  std::vector<RouteEntry>& final_day = f.ribs.days.back().entries;
  const SanitizerOptions options = Fixture::delta_options();
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, options};
  SanitizeResult current = inc.run_full(f.ribs);
  ASSERT_GT(inc.live_paths(), 0u);
  EXPECT_EQ(inc.interned_paths(), inc.live_paths());

  const auto key = std::find_if(final_day.begin(), final_day.end(),
                                [](const RouteEntry& e) {
                                  return e.vp == kVpUs && e.prefix == pfx("10.1.0.0/16");
                                });
  ASSERT_NE(key, final_day.end());
  std::size_t commits = 0;
  for (bgp::Asn via = 100;; ++via) {
    ASSERT_LT(via, 200u) << "the delta path never declined";
    const AsPath next{1, via, 10};
    const bgp::RouteDelta delta{key->vp, key->prefix, key->path, next};
    std::optional<IncrementalSanitizer::DeltaPlan> plan =
        inc.plan_delta(f.ribs.days.back().day,
                       std::span<const bgp::RouteDelta>{&delta, 1}, current);
    if (!plan) {
      // It declined for the bound, one burst past twice the live ids.
      EXPECT_GT(inc.interned_paths(), 2 * inc.live_paths());
      EXPECT_LE(inc.interned_paths(), 2 * inc.live_paths() + 1);
      break;
    }
    EXPECT_LE(inc.interned_paths(), 2 * inc.live_paths());
    (void)inc.commit_delta(std::move(*plan), current);
    key->path = next;
    ++commits;
    PathSanitizer batch{f.geo_db, f.vps, f.registry, options};
    expect_equal(current, batch.run(f.ribs));
  }
  EXPECT_GE(commits, inc.live_paths());

  // The full run it falls back to equals a cold run and starts a fresh
  // interner.
  PathSanitizer batch{f.geo_db, f.vps, f.registry, options};
  expect_equal(inc.run_full(f.ribs), batch.run(f.ribs));
  EXPECT_EQ(inc.interned_paths(), inc.live_paths());
}

}  // namespace
}  // namespace georank::sanitize
