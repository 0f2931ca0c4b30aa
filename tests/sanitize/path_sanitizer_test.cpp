#include "sanitize/path_sanitizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <tuple>
#include <string>
#include <unordered_set>
#include <vector>

#include "gen/internet.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "sanitize/filter_detail.hpp"
#include "util/rng.hpp"

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
constexpr VpId kVpMultihop{0x0A000002, 510};

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
    vps.add_collector({"mh", geo::CountryCode::of("US"), true});
    vps.register_vp(kVpUs, "us");
    vps.register_vp(kVpAu, "au");
    vps.register_vp(kVpMultihop, "mh");

    registry.allocate_range(1, 1000);
    registry.finalize();

    ribs.days.resize(5);
    for (int d = 0; d < 5; ++d) ribs.days[d].day = d;
  }

  void add(const VpId& vp, const char* prefix, AsPath path, int days = 5) {
    for (int d = 0; d < days; ++d) {
      ribs.days[d].entries.push_back(RouteEntry{vp, pfx(prefix), path});
    }
  }

  SanitizeResult run(SanitizerOptions options = {}) {
    if (options.clique.empty()) options.clique = {1, 2};
    PathSanitizer sanitizer{geo_db, vps, registry, options};
    return sanitizer.run(ribs);
  }
};

TEST(IsPoisoned, DetectsCliqueSandwich) {
  std::vector<bgp::Asn> clique{1, 2, 3};
  EXPECT_TRUE(is_poisoned(AsPath{1, 99, 2}, clique));
  EXPECT_TRUE(is_poisoned(AsPath{9, 1, 99, 98, 3, 8}, clique));
  EXPECT_FALSE(is_poisoned(AsPath{1, 2, 99}, clique));   // adjacent clique
  EXPECT_FALSE(is_poisoned(AsPath{99, 1, 98}, clique));  // single clique hop
  EXPECT_FALSE(is_poisoned(AsPath{1, 99, 98}, clique));
  EXPECT_FALSE(is_poisoned(AsPath{1, 99, 2}, {}));       // no clique known
}

TEST(PathSanitizer, AcceptsCleanPath) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 100});
  SanitizeResult r = f.run();
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.stats.accepted, 5u);  // one entry per day
  EXPECT_EQ(r.stats.duplicates_merged, 4u);
  const SanitizedPath& sp = r.paths[0];
  EXPECT_EQ(sp.vp, kVpUs);
  EXPECT_EQ(sp.vp_country, geo::CountryCode::of("US"));
  EXPECT_EQ(sp.prefix_country, geo::CountryCode::of("US"));
  EXPECT_EQ(sp.weight, 65536u);
}

TEST(PathSanitizer, RejectsUnstablePrefix) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 100}, /*days=*/3);
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.stats.unstable, 3u);
  EXPECT_EQ(r.stats.accepted, 0u);
}

TEST(PathSanitizer, StabilityIsPerPrefixNotPerVp) {
  Fixture f;
  // The prefix is visible every day, but from different VPs.
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 100}, /*days=*/3);
  for (int d = 3; d < 5; ++d) {
    f.ribs.days[d].entries.push_back(
        RouteEntry{kVpAu, pfx("10.1.0.0/16"), AsPath{600, 2, 1, 100}});
  }
  SanitizeResult r = f.run();
  EXPECT_EQ(r.stats.unstable, 0u);
  EXPECT_EQ(r.stats.accepted, 5u);
  EXPECT_EQ(r.paths.size(), 2u);  // two distinct (vp, path) combos
}

TEST(PathSanitizer, RejectsUnallocatedAsn) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 5000, 100});
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.stats.unallocated, 5u);
}

TEST(PathSanitizer, RejectsAsSetPath) {
  Fixture f;
  // An otherwise clean path whose line carried AS_SET syntax: the parser
  // flattened it and marked the path; the drop decision happens here.
  AsPath flattened{500, 1, 100};
  flattened.mark_as_set();
  f.add(kVpUs, "10.1.0.0/16", flattened);
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.stats.as_set, 5u);
  EXPECT_EQ(r.stats.total, r.stats.accepted + r.stats.rejected());
}

TEST(PathSanitizer, AsSetPrecedesLoopAndUnallocated) {
  Fixture f;
  // Flattened AS_SET members can masquerade as loops or unallocated
  // hops; the as-set category must claim such entries first.
  AsPath loopy{500, 1, 500, 100};
  loopy.mark_as_set();
  f.add(kVpUs, "10.1.0.0/16", loopy);
  AsPath unallocated{500, 5000, 100};
  unallocated.mark_as_set();
  f.add(kVpUs, "10.2.0.0/16", unallocated);
  SanitizeResult r = f.run();
  EXPECT_EQ(r.stats.as_set, 10u);
  EXPECT_EQ(r.stats.loop, 0u);
  EXPECT_EQ(r.stats.unallocated, 0u);
}

TEST(PathSanitizer, RejectsLoopedPath) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 500, 100});
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.stats.loop, 5u);
}

TEST(PathSanitizer, RejectsPoisonedPath) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 99, 2, 100});
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.stats.poisoned, 5u);
}

TEST(PathSanitizer, RejectsMultihopVp) {
  Fixture f;
  f.add(kVpMultihop, "10.1.0.0/16", AsPath{510, 1, 100});
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.stats.vp_no_location, 5u);
}

TEST(PathSanitizer, RejectsCoveredPrefix) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 100});
  f.add(kVpUs, "10.1.0.0/17", AsPath{500, 1, 100});
  f.add(kVpUs, "10.1.128.0/17", AsPath{500, 1, 100});
  SanitizeResult r = f.run();
  EXPECT_EQ(r.stats.covered_prefix, 5u);
  EXPECT_EQ(r.paths.size(), 2u);
}

TEST(PathSanitizer, RejectsUngeolocatablePrefix) {
  Fixture f;
  f.add(kVpUs, "30.1.0.0/16", AsPath{500, 1, 100});  // outside the geo DB
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.stats.prefix_no_location, 5u);
}

TEST(PathSanitizer, StripsRouteServersAndPrepending) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 777, 1, 1, 100});
  SanitizerOptions options;
  options.route_server_asns = {777};
  SanitizeResult r = f.run(std::move(options));
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].path, (AsPath{500, 1, 100}));
}

TEST(PathSanitizer, AccountingSumsToTotal) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 100});            // accepted
  f.add(kVpUs, "10.2.0.0/16", AsPath{500, 1, 101}, 2);         // unstable
  f.add(kVpUs, "10.3.0.0/16", AsPath{500, 5000, 102});         // unallocated
  f.add(kVpAu, "20.1.0.0/16", AsPath{600, 2, 600, 103});       // loop
  f.add(kVpMultihop, "10.4.0.0/16", AsPath{510, 1, 104});      // vp no loc
  f.add(kVpUs, "30.0.0.0/16", AsPath{500, 1, 105});            // pfx no loc
  SanitizeResult r = f.run();
  EXPECT_EQ(r.stats.total,
            r.stats.accepted + r.stats.rejected());
  EXPECT_EQ(r.stats.total, 5u * 5u + 2u);
}

TEST(PathSanitizer, InfersCliqueWhenNotGiven) {
  Fixture f;
  // Clique {1,2} visible through cross traffic.
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 2, 100});
  f.add(kVpAu, "10.1.0.0/16", AsPath{600, 2, 1, 100});
  f.add(kVpUs, "20.1.0.0/16", AsPath{500, 1, 2, 600});
  f.add(kVpAu, "20.2.0.0/16", AsPath{600, 2, 1, 500});
  SanitizerOptions options;  // no explicit clique
  PathSanitizer sanitizer{f.geo_db, f.vps, f.registry, options};
  SanitizeResult r = sanitizer.run(f.ribs);
  EXPECT_FALSE(r.clique.empty());
}

TEST(PathSanitizer, StabilityDaysOverride) {
  Fixture f;
  // Present on 3 of 5 days: unstable under the default rule...
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 100}, /*days=*/3);
  SanitizeResult strict = f.run();
  EXPECT_EQ(strict.stats.unstable, 3u);
  // ...but acceptable when only 3 days of presence are required.
  SanitizerOptions options;
  options.stability_days = 3;
  SanitizeResult relaxed = f.run(std::move(options));
  EXPECT_EQ(relaxed.stats.unstable, 0u);
  EXPECT_EQ(relaxed.stats.accepted, 3u);
}

TEST(PathSanitizer, CapturesRejectedSamples) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 500, 100});      // loop x5 days
  f.add(kVpMultihop, "10.2.0.0/16", AsPath{510, 1, 104});     // vp no loc x5
  SanitizerOptions options;
  options.samples_per_category = 2;
  SanitizeResult r = f.run(std::move(options));
  std::size_t loops = 0, vp_no_loc = 0;
  for (const RejectedSample& s : r.samples) {
    if (s.reason == FilterReason::kLoop) ++loops;
    if (s.reason == FilterReason::kVpNoLocation) ++vp_no_loc;
  }
  // Capped at 2 per category despite 5 rejected entries each.
  EXPECT_EQ(loops, 2u);
  EXPECT_EQ(vp_no_loc, 2u);
  // The sample carries the offending entry.
  EXPECT_EQ(r.samples[0].entry.path, (AsPath{500, 1, 500, 100}));
}

TEST(PathSanitizer, NoSamplesByDefault) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 500, 100});
  SanitizeResult r = f.run();
  EXPECT_TRUE(r.samples.empty());
}

TEST(PathSanitizer, DeduplicatesAcrossDays) {
  Fixture f;
  f.add(kVpUs, "10.1.0.0/16", AsPath{500, 1, 100});
  f.add(kVpAu, "10.1.0.0/16", AsPath{600, 2, 100});
  SanitizeResult r = f.run();
  EXPECT_EQ(r.paths.size(), 2u);
  EXPECT_EQ(r.stats.accepted, 10u);
  EXPECT_EQ(r.stats.duplicates_merged, 8u);
}

// ---- Dedup against a string-keyed reference. ----
// A test-local copy of the filter loop as it was before path interning:
// every entry's cleaned path is built by two copies and keyed by its
// to_string() text in a node-based hash set. The clique and prefix
// geolocation are global inputs the dedup does not touch, so the
// reference takes them from the run under test.

struct StringKey {
  VpId vp;
  Prefix prefix;
  std::string path;
  bool operator==(const StringKey&) const = default;
};

struct StringKeyHash {
  std::size_t operator()(const StringKey& k) const noexcept {
    std::size_t h = bgp::VpIdHash{}(k.vp);
    h ^= bgp::PrefixHash{}(k.prefix) + 0x9e3779b9u + (h << 6) + (h >> 2);
    h ^= std::hash<std::string>{}(k.path) + 0x9e3779b9u + (h << 6) + (h >> 2);
    return h;
  }
};

/// `path` without any hop in `remove` (the reference's route-server strip).
AsPath without_ases(const AsPath& path, std::span<const bgp::Asn> remove) {
  std::vector<bgp::Asn> kept;
  for (const bgp::Asn hop : path.hops()) {
    if (std::find(remove.begin(), remove.end(), hop) == remove.end()) kept.push_back(hop);
  }
  return AsPath{std::move(kept)};
}

SanitizeResult string_keyed_reference(const RibCollection& ribs,
                                      const geo::VpGeolocator& vps,
                                      const AsnRegistry& registry,
                                      const SanitizerOptions& options,
                                      const SanitizeResult& run) {
  detail::DayCounts counts;
  for (const bgp::RibSnapshot& snap : ribs.days) detail::add_day_presence(counts, snap);
  const std::size_t need = detail::stability_need(options, ribs.days.size());
  const std::unordered_set<Prefix, bgp::PrefixHash> covered(
      run.prefix_geo.covered.begin(), run.prefix_geo.covered.end());

  SanitizeResult out;
  out.clique = run.clique;
  std::unordered_set<StringKey, StringKeyHash> dedup;
  std::array<std::size_t, 9> sample_counts{};
  for (const bgp::RibSnapshot& snap : ribs.days) {
    for (const RouteEntry& e : snap.entries) {
      ++out.stats.total;
      const auto reject = [&](FilterReason reason, std::size_t& counter) {
        ++counter;
        auto& taken = sample_counts[static_cast<std::size_t>(reason)];
        if (taken < options.samples_per_category) {
          ++taken;
          out.samples.push_back(RejectedSample{reason, e, snap.day});
        }
      };
      if (counts.at(e.prefix).count < need) {
        reject(FilterReason::kUnstable, out.stats.unstable);
        continue;
      }
      if (e.path.has_as_set()) {
        reject(FilterReason::kAsSet, out.stats.as_set);
        continue;
      }
      if (!registry.all_allocated(e.path)) {
        reject(FilterReason::kUnallocated, out.stats.unallocated);
        continue;
      }
      const AsPath collapsed = e.path.without_adjacent_duplicates();
      std::unordered_set<bgp::Asn> seen;
      bool loop = false;
      for (bgp::Asn hop : collapsed.hops()) loop = loop || !seen.insert(hop).second;
      if (loop) {
        reject(FilterReason::kLoop, out.stats.loop);
        continue;
      }
      if (is_poisoned(e.path, run.clique)) {
        reject(FilterReason::kPoisoned, out.stats.poisoned);
        continue;
      }
      const auto vp_country = vps.locate(e.vp);
      if (!vp_country) {
        reject(FilterReason::kVpNoLocation, out.stats.vp_no_location);
        continue;
      }
      if (covered.contains(e.prefix)) {
        reject(FilterReason::kCoveredPrefix, out.stats.covered_prefix);
        continue;
      }
      const geo::CountryCode prefix_country = run.prefix_geo.country_of(e.prefix);
      if (!prefix_country.valid()) {
        reject(FilterReason::kPrefixNoLocation, out.stats.prefix_no_location);
        continue;
      }
      ++out.stats.accepted;
      AsPath cleaned =
          without_ases(e.path, options.route_server_asns).without_adjacent_duplicates();
      if (cleaned.empty()) continue;
      if (!dedup.insert(StringKey{e.vp, e.prefix, cleaned.to_string()}).second) {
        ++out.stats.duplicates_merged;
        continue;
      }
      out.paths.push_back(SanitizedPath{e.vp, *vp_country, e.prefix, prefix_country,
                                        run.prefix_geo.weight_of(e.prefix),
                                        std::move(cleaned)});
    }
  }
  return out;
}

void expect_same_run(const SanitizeResult& got, const SanitizeResult& want) {
  ASSERT_EQ(got.paths.size(), want.paths.size());
  for (std::size_t i = 0; i < got.paths.size(); ++i) {
    const SanitizedPath& a = got.paths[i];
    const SanitizedPath& b = want.paths[i];
    ASSERT_TRUE(a.vp == b.vp && a.vp_country == b.vp_country &&
                a.prefix == b.prefix && a.prefix_country == b.prefix_country &&
                a.weight == b.weight && a.path == b.path)
        << "row " << i << ": " << a.path.to_string() << " vs " << b.path.to_string();
  }
  for (std::size_t r = 0; r <= static_cast<std::size_t>(FilterReason::kAsSet); ++r) {
    const auto reason = static_cast<FilterReason>(r);
    EXPECT_EQ(got.stats.count(reason), want.stats.count(reason)) << to_string(reason);
  }
  EXPECT_EQ(got.stats.total, want.stats.total);
  EXPECT_EQ(got.stats.duplicates_merged, want.stats.duplicates_merged);
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    EXPECT_EQ(got.samples[i].reason, want.samples[i].reason) << "sample " << i;
    EXPECT_EQ(got.samples[i].day, want.samples[i].day) << "sample " << i;
    EXPECT_TRUE(got.samples[i].entry == want.samples[i].entry) << "sample " << i;
  }
}

/// Runs PathSanitizer and the reference over one world; returns the run.
SanitizeResult expect_matches_reference(const gen::World& world,
                                        const RibCollection& ribs) {
  SanitizerOptions options;
  options.clique = world.clique;
  options.route_server_asns = world.route_servers;
  options.samples_per_category = 3;
  const SanitizeResult run =
      PathSanitizer{world.geo_db, world.vps, world.asn_registry, options}.run(ribs);
  expect_same_run(run, string_keyed_reference(ribs, world.vps, world.asn_registry,
                                              options, run));
  return run;
}

/// True when some entry's raw path crosses a route server.
bool crosses_route_server(const gen::World& world, const RibCollection& ribs) {
  for (const bgp::RibSnapshot& snap : ribs.days) {
    for (const RouteEntry& e : snap.entries) {
      for (bgp::Asn rs : world.route_servers) {
        if (e.path.contains(rs)) return true;
      }
    }
  }
  return false;
}

/// Moves keys between paths across days. On day d, every fifth entry
/// (offset d) drops its second hop, a new cleaned path for the same
/// (VP, prefix); every fifth entry (offset d + 2) repeats its first hop,
/// which cleans to the path it had.
void vary_paths_across_days(RibCollection& ribs) {
  for (std::size_t d = 1; d < ribs.days.size(); ++d) {
    std::vector<RouteEntry>& entries = ribs.days[d].entries;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::span<const bgp::Asn> hops = entries[i].path.hops();
      std::vector<bgp::Asn> varied(hops.begin(), hops.end());
      if (hops.size() >= 3 && i % 5 == d % 5) {
        varied.erase(varied.begin() + 1);
      } else if (!hops.empty() && i % 5 == (d + 2) % 5) {
        varied.insert(varied.begin(), hops.front());
      } else {
        continue;
      }
      entries[i].path = AsPath{std::move(varied)};
    }
  }
}

TEST(PathSanitizer, DedupMatchesStringKeyedReference) {
  {  // mini world: five noisy days (flaps, loops, prepends, route servers)
    const gen::World world = gen::InternetGenerator{gen::mini_world_spec(5)}.generate();
    const RibCollection ribs = gen::RibGenerator{world, gen::NoiseSpec{}, 7}.generate(5);
    const SanitizeResult run = expect_matches_reference(world, ribs);
    EXPECT_GT(run.paths.size(), 0u);
    EXPECT_GT(run.stats.duplicates_merged, 0u);
  }
  {  // the 0.25x internet preset, one day
    const gen::InternetScaleGenerator generator{gen::internet_spec(0.25, 2401)};
    const gen::World world = generator.generate();
    const SanitizeResult run =
        expect_matches_reference(world, generator.synthesize_ribs(world));
    EXPECT_GT(run.paths.size(), 10000u);
  }
  {  // five days of a mini world where every IXP crossing keeps its
     // route server, prepending is common and keys change paths: cleaning
     // changes many paths, and each day repeats most keys of the day
     // before
    const gen::World world = gen::InternetGenerator{gen::mini_world_spec(23)}.generate();
    gen::NoiseSpec noise;
    noise.route_server_rate = 1.0;
    noise.prepend_rate = 0.2;
    RibCollection ribs = gen::RibGenerator{world, noise, 29}.generate(5);
    vary_paths_across_days(ribs);
    EXPECT_TRUE(crosses_route_server(world, ribs));
    const SanitizeResult run = expect_matches_reference(world, ribs);
    EXPECT_GE(run.stats.duplicates_merged, 2 * run.paths.size());
    // Some keys kept more than one distinct path.
    std::set<std::pair<VpId, Prefix>> keys;
    for (const SanitizedPath& row : run.paths) keys.emplace(row.vp, row.prefix);
    EXPECT_LT(keys.size(), run.paths.size());
  }
}

TEST(PathSanitizer, DedupSetChurnMatchesOrderedSet) {
  // Inserts and erases over a small key space, so the table fills with
  // tombstones and rebuilds both in place and by doubling.
  util::Pcg32 rng{2303};
  detail::DedupSet set;
  set.reserve(8);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> want;
  for (int step = 0; step < 200000; ++step) {
    const std::uint32_t universe = step < 100000 ? 64 : 4096;
    const detail::DedupKey key{VpId{rng.below(4), 7},
                               Prefix{rng.below(universe) << 8, 24},
                               rng.below(universe)};
    const auto tuple = std::make_tuple(key.vp.ip, key.prefix.address(), key.path);
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(set.insert(key), want.insert(tuple).second) << "step " << step;
        break;
      case 1:
        ASSERT_EQ(set.erase(key), want.erase(tuple) == 1) << "step " << step;
        break;
      default:
        ASSERT_EQ(set.contains(key), want.contains(tuple)) << "step " << step;
    }
  }
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> got;
  set.for_each([&](const detail::DedupKey& k) {
    EXPECT_TRUE(got.emplace(k.vp.ip, k.prefix.address(), k.path).second);
  });
  EXPECT_EQ(got, want);
}

TEST(PathSanitizer, PathInternerIdsAreExactAndDense) {
  util::Pcg32 rng{2304};
  PathInterner interner;
  std::vector<std::vector<bgp::Asn>> by_id;
  for (int step = 0; step < 50000; ++step) {
    std::vector<bgp::Asn> hops(rng.below(6));
    for (bgp::Asn& hop : hops) hop = 1 + rng.below(5);
    const auto known = std::find(by_id.begin(), by_id.end(), hops);
    const std::uint32_t found = interner.find(hops);
    const std::uint32_t id = interner.intern(hops);
    if (known == by_id.end()) {
      ASSERT_EQ(found, PathInterner::kNoId);
      ASSERT_EQ(id, by_id.size());
      by_id.push_back(hops);
    } else {
      ASSERT_EQ(found, static_cast<std::uint32_t>(known - by_id.begin()));
      ASSERT_EQ(id, found);
    }
  }
  ASSERT_EQ(interner.size(), by_id.size());
  std::size_t hops_total = 0;
  for (std::uint32_t id = 0; id < by_id.size(); ++id) {
    const std::span<const bgp::Asn> hops = interner.hops(id);
    EXPECT_TRUE(std::equal(hops.begin(), hops.end(), by_id[id].begin(), by_id[id].end()));
    EXPECT_EQ(interner.handle(id).offset, hops_total);
    hops_total += by_id[id].size();
  }
  EXPECT_EQ(interner.arena_size(), hops_total);
}

}  // namespace
}  // namespace georank::sanitize
