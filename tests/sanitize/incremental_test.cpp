// IncrementalSanitizer: the fast path must be indistinguishable from a
// batch PathSanitizer::run over the same collection — every row, every
// counter, every audit sample — and every precondition violation must
// fall back to the full run rather than silently diverge.
#include "sanitize/incremental_sanitizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>

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

  [[nodiscard]] SanitizeResult batch() const {
    PathSanitizer sanitizer{geo_db, vps, registry, options()};
    return sanitizer.run(ribs);
  }
};

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
  IncrementalSanitizer::Outcome outcome;
  SanitizeResult result = inc.run_full(f.ribs, &outcome);
  expect_equal(result, f.batch());
  EXPECT_FALSE(outcome.fast_path);
  EXPECT_EQ(outcome.days_resanitized, 3u);
}

TEST(IncrementalSanitizer, FastPathMatchesBatchOnFinalDayGrowth) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult previous = inc.run_full(f.ribs);

  // New path for a stable prefix, a brand-new (hence unstable) prefix,
  // and an exact duplicate of a head entry.
  f.add_final_day(kVpUs, "10.1.0.0/16", AsPath{1, 3, 10});
  f.add_final_day(kVpAu, "10.9.0.0/16", AsPath{2, 12});
  f.add_final_day(kVpUs, "10.1.0.0/16", AsPath{1, 10});

  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  IncrementalSanitizer::Outcome outcome;
  SanitizeResult result = inc.run_fast(f.ribs, std::move(previous), &outcome);
  expect_equal(result, f.batch());
  EXPECT_TRUE(outcome.fast_path);
  EXPECT_EQ(outcome.days_reused, 2u);
  EXPECT_EQ(outcome.days_resanitized, 1u);
}

TEST(IncrementalSanitizer, RepeatedFastPathsStayConsistent) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult result = inc.run_full(f.ribs);

  for (int round = 0; round < 3; ++round) {
    f.add_final_day(kVpAu, "20.1.0.0/16",
                    AsPath{2, static_cast<bgp::Asn>(30 + round), 20});
    ASSERT_TRUE(inc.can_fast_path(f.ribs)) << "round " << round;
    result = inc.run_fast(f.ribs, std::move(result));
    expect_equal(result, f.batch());
  }
}

TEST(IncrementalSanitizer, FastPathMatchesBatchOnFinalDayRewrite) {
  // NOT an append: an entry lands at the FRONT of the final day and one
  // final-day route is withdrawn. The stable set is intact (both
  // prefixes keep their three-day presence) so the fast path is still
  // taken: it rewinds the dedup state to the final-day boundary and
  // re-filters the whole day.
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult previous = inc.run_full(f.ribs);
  const std::size_t head_rows = inc.memo_head_rows();

  auto& entries = f.ribs.days.back().entries;
  entries.insert(entries.begin(),
                 RouteEntry{kVpAu, pfx("10.1.0.0/16"), AsPath{2, 14, 10}});
  entries.pop_back();  // drop kVpAu's 20.1.0.0/16 (kVpUs still announces it)

  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  IncrementalSanitizer::Outcome outcome;
  SanitizeResult result = inc.run_fast(f.ribs, std::move(previous), &outcome);
  expect_equal(result, f.batch());
  EXPECT_TRUE(outcome.fast_path);
  EXPECT_EQ(outcome.rows_reused, head_rows);
}

TEST(IncrementalSanitizer, AppendFastPathReusesEveryPreviousRow) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult previous = inc.run_full(f.ribs);
  const std::size_t previous_rows = previous.paths.size();

  // Strict extension of the memoized final day: one fresh row and one
  // merged duplicate on top of every previous row.
  f.add_final_day(kVpAu, "10.1.0.0/16", AsPath{2, 15, 10});
  f.add_final_day(kVpAu, "10.1.0.0/16", AsPath{2, 15, 10});

  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  IncrementalSanitizer::Outcome outcome;
  SanitizeResult result = inc.run_fast(f.ribs, std::move(previous), &outcome);
  expect_equal(result, f.batch());
  EXPECT_TRUE(outcome.fast_path);
  EXPECT_EQ(result.paths.size(), previous_rows + 1);
}

TEST(IncrementalSanitizer, AlternatingAppendAndRewriteStayConsistent) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult result = inc.run_full(f.ribs);

  // Append...
  f.add_final_day(kVpUs, "20.1.0.0/16", AsPath{1, 16, 20});
  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  result = inc.run_fast(f.ribs, std::move(result));
  expect_equal(result, f.batch());

  // ...then reorder the final day (same entries, different order)...
  auto& entries = f.ribs.days.back().entries;
  std::swap(entries.front(), entries.back());
  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  result = inc.run_fast(f.ribs, std::move(result));
  expect_equal(result, f.batch());

  // ...then append again on top of the rewritten day.
  f.add_final_day(kVpAu, "20.1.0.0/16", AsPath{2, 17, 20});
  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  result = inc.run_fast(f.ribs, std::move(result));
  expect_equal(result, f.batch());
}

TEST(IncrementalSanitizer, UnchangedCollectionFastPathsToIdenticalResult) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult previous = inc.run_full(f.ribs);
  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  SanitizeResult result = inc.run_fast(f.ribs, std::move(previous));
  expect_equal(result, f.batch());
}

TEST(IncrementalSanitizer, StablePrefixVanishingFallsBackAndMatches) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult ignored = inc.run_full(f.ribs);
  (void)ignored;

  // Withdraw every final-day route for 20.1.0.0/16: its day count drops
  // below the stability threshold, the stable set changes, and the
  // cached PrefixGeoResult is no longer valid.
  auto& entries = f.ribs.days.back().entries;
  std::erase_if(entries, [](const RouteEntry& e) {
    return e.prefix == pfx("20.1.0.0/16");
  });

  EXPECT_FALSE(inc.can_fast_path(f.ribs));
  IncrementalSanitizer::Outcome outcome;
  SanitizeResult result = inc.run_full(f.ribs, &outcome);
  expect_equal(result, f.batch());
  EXPECT_FALSE(outcome.fast_path);
}

TEST(IncrementalSanitizer, HeadDayChangeFallsBack) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult ignored = inc.run_full(f.ribs);
  (void)ignored;
  f.ribs.days[1].entries.push_back(
      RouteEntry{kVpUs, pfx("10.2.0.0/16"), AsPath{1, 13}});
  EXPECT_FALSE(inc.can_fast_path(f.ribs));
}

TEST(IncrementalSanitizer, DayCountChangeFallsBack) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult ignored = inc.run_full(f.ribs);
  (void)ignored;
  f.ribs.days.push_back(bgp::RibSnapshot{3, {}});
  EXPECT_FALSE(inc.can_fast_path(f.ribs));
  // The grown collection full-runs fine and re-arms the memo.
  SanitizeResult result = inc.run_full(f.ribs);
  expect_equal(result, f.batch());
  EXPECT_TRUE(inc.can_fast_path(f.ribs));
}

TEST(IncrementalSanitizer, InferredCliqueNeverFastPaths) {
  Fixture f;
  SanitizerOptions options = Fixture::options();
  options.clique.clear();
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, options};
  SanitizeResult ignored = inc.run_full(f.ribs);
  (void)ignored;
  EXPECT_FALSE(inc.can_fast_path(f.ribs));

  // The full run still matches the batch sanitizer with inference on.
  PathSanitizer batch{f.geo_db, f.vps, f.registry, options};
  expect_equal(inc.run_full(f.ribs), batch.run(f.ribs));
}

TEST(IncrementalSanitizer, RunFastWithoutStagedCheckFallsBackToFull) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  // No can_fast_path() call staged anything: run_fast must full-run.
  IncrementalSanitizer::Outcome outcome;
  SanitizeResult result = inc.run_fast(f.ribs, SanitizeResult{}, &outcome);
  expect_equal(result, f.batch());
  EXPECT_FALSE(outcome.fast_path);
}

TEST(IncrementalSanitizer, InvalidateForcesFullRun) {
  Fixture f;
  IncrementalSanitizer inc{f.geo_db, f.vps, f.registry, Fixture::options()};
  SanitizeResult ignored = inc.run_full(f.ribs);
  (void)ignored;
  ASSERT_TRUE(inc.can_fast_path(f.ribs));
  inc.invalidate();
  EXPECT_FALSE(inc.can_fast_path(f.ribs));
}

TEST(IncrementalSanitizer, DeltaInternerStaysBounded) {
  // A delta-ready memo: no samples, and a final day in (VP, prefix)
  // order. Each burst moves one key to a path never seen before, so the
  // interner gains an id per burst while the live ids stay put.
  Fixture f;
  std::vector<RouteEntry>& final_day = f.ribs.days.back().entries;
  std::sort(final_day.begin(), final_day.end(),
            [](const RouteEntry& a, const RouteEntry& b) {
              return a.vp != b.vp ? a.vp < b.vp : a.prefix < b.prefix;
            });
  SanitizerOptions options = Fixture::options();
  options.samples_per_category = 0;
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

  // The fast path declines as well, and the full run it falls back to
  // equals a cold run and starts a fresh interner.
  EXPECT_FALSE(inc.can_fast_path(f.ribs));
  PathSanitizer batch{f.geo_db, f.vps, f.registry, options};
  expect_equal(inc.run_full(f.ribs), batch.run(f.ribs));
  EXPECT_EQ(inc.interned_paths(), inc.live_paths());
}

}  // namespace
}  // namespace georank::sanitize
