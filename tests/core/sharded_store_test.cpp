#include "core/sharded_path_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>

#include "core/country_rankings.hpp"
#include "core/views.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "sanitize/path_sanitizer.hpp"
#include "topo/as_graph.hpp"

namespace georank::core {
namespace {

using bgp::AsPath;
using bgp::Prefix;
using geo::CountryCode;
using sanitize::SanitizedPath;

CountryCode AU = CountryCode::of("AU");
CountryCode US = CountryCode::of("US");
CountryCode JP = CountryCode::of("JP");

SanitizedPath mk(std::uint32_t vp_ip, CountryCode vp_cc, AsPath path,
                 std::uint32_t pfx_index, CountryCode pfx_cc,
                 std::uint64_t weight = 256) {
  SanitizedPath sp;
  sp.vp = bgp::VpId{vp_ip, path.empty() ? 0 : path[0]};
  sp.vp_country = vp_cc;
  sp.prefix = Prefix{0x0A000000 + pfx_index * 256, 24};
  sp.prefix_country = pfx_cc;
  sp.weight = weight;
  sp.path = std::move(path);
  return sp;
}

/// Shared and unique paths across three countries, plus an
/// un-geolocated VP (invalid country — its row must land only in its
/// PREFIX country's shard).
std::vector<SanitizedPath> sample_paths() {
  return {
      mk(1, AU, AsPath{100, 50, 200}, 1, AU),
      mk(2, US, AsPath{101, 50, 200}, 1, AU),
      mk(2, US, AsPath{101, 50, 200}, 2, US),
      mk(3, JP, AsPath{102, 60, 201}, 1, AU),
      mk(1, AU, AsPath{100, 50, 200}, 3, US),
      mk(4, CountryCode{}, AsPath{103, 60, 202}, 2, US),
      mk(3, JP, AsPath{102, 60}, 4, JP),
  };
}

/// Ground-truth-ish relationships over the fixture's ASNs, enough for
/// the cone/hegemony kernels to label every link.
topo::AsGraph sample_graph() {
  topo::AsGraph g;
  g.add_p2c(50, 200);
  g.add_p2c(100, 50);
  g.add_p2c(101, 50);
  g.add_p2c(60, 201);
  g.add_p2c(60, 202);
  g.add_p2c(102, 60);
  g.add_p2c(103, 60);
  g.add_p2p(50, 60);
  return g;
}

void expect_same_selection(const CountryView& a, const CountryView& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    sanitize::PathRecord ra = a[i], rb = b[i];
    EXPECT_EQ(ra.vp, rb.vp);
    EXPECT_EQ(ra.vp_country, rb.vp_country);
    EXPECT_EQ(ra.prefix, rb.prefix);
    EXPECT_EQ(ra.prefix_country, rb.prefix_country);
    EXPECT_EQ(ra.weight, rb.weight);
    EXPECT_EQ(ra.path, rb.path);
  }
}

/// The row of `shard` equal to `p` on every field, or nullopt.
std::optional<sanitize::PathRecord> find_row(const PathShard& shard,
                                             const SanitizedPath& p) {
  const sanitize::PathsView rows{shard.columns(), shard.size()};
  for (const sanitize::PathRecord rec : rows) {
    if (rec.vp == p.vp && rec.vp_country == p.vp_country &&
        rec.prefix == p.prefix && rec.prefix_country == p.prefix_country &&
        rec.weight == p.weight && rec.path == bgp::AsPathView{p.path}) {
      return rec;
    }
  }
  return std::nullopt;
}

/// The sanitized paths of a generated mini world (seed 5): the
/// unsharded reference input of the `...MonolithicStore` tests.
const std::vector<SanitizedPath>& mini_world_paths() {
  static const std::vector<SanitizedPath> paths = [] {
    const gen::World world =
        gen::InternetGenerator{gen::mini_world_spec(5)}.generate();
    sanitize::SanitizerOptions options;
    options.clique = world.clique;
    options.route_server_asns = world.route_servers;
    return sanitize::PathSanitizer{world.geo_db, world.vps,
                                   world.asn_registry, options}
        .run(gen::RibGenerator{world, gen::NoiseSpec{}, 7}.generate(5))
        .paths;
  }();
  return paths;
}

// ---- PathStore: the store's own contract on the hand-made fixture. ----
// ShardedPathStore is the one path store; these check its rows,
// interning, buckets and views against naive filters and ViewBuilder.

TEST(PathStore, RoundTripsEveryField) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  ASSERT_EQ(store.size(), paths.size());
  for (const SanitizedPath& p : paths) {
    const PathShard* shard = store.shard(p.prefix_country);
    ASSERT_NE(shard, nullptr);
    auto rec = find_row(*shard, p);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->materialize().path, p.path);
  }
}

TEST(PathStore, InterningCollapsesDuplicateHopSequences) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  // 7 rows, 5 distinct hop sequences: {100,50,200} (rows 0 and 4),
  // {101,50,200} (rows 1 and 2), {102,60,201}, {103,60,202}, {102,60}.
  EXPECT_EQ(store.size(), paths.size());
  EXPECT_EQ(store.unique_path_count(), 5u);
  EXPECT_EQ(store.arena_hop_count(), 3u + 3u + 3u + 3u + 2u);
  EXPECT_LT(store.unique_path_count(), store.size());
  // Rows 0 and 4 (both from AU's VP) share one handle, hence one span.
  const PathShard* au = store.shard(AU);
  ASSERT_NE(au, nullptr);
  auto row0 = find_row(*au, paths[0]);
  auto row4 = find_row(*au, paths[4]);
  ASSERT_TRUE(row0 && row4);
  EXPECT_EQ(row0->path.hops().data(), row4->path.hops().data());
}

TEST(PathStore, BucketsMatchNaiveFilter) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  for (CountryCode cc : {AU, US, JP}) {
    const PathShard* shard = store.shard(cc);
    ASSERT_NE(shard, nullptr);
    std::vector<SanitizedPath> expect_prefix, expect_vp;
    for (const SanitizedPath& p : paths) {
      if (p.prefix_country == cc) expect_prefix.push_back(p);
      if (p.vp_country == cc) expect_vp.push_back(p);
    }
    expect_same_selection(
        CountryView{shard->columns(), shard->prefix_rows(), cc,
                    ViewKind::kNational},
        CountryView::from_paths(expect_prefix, cc, ViewKind::kNational));
    expect_same_selection(
        CountryView{shard->columns(), shard->vp_rows(), cc,
                    ViewKind::kNational},
        CountryView::from_paths(expect_vp, cc, ViewKind::kNational));
  }
}

TEST(PathStore, CountriesSortedAndComplete) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  EXPECT_EQ(store.countries(), ViewBuilder::countries(paths));
  ASSERT_EQ(store.vp_countries().size(), 3u);
  EXPECT_TRUE(std::is_sorted(store.vp_countries().begin(),
                             store.vp_countries().end()));
}

TEST(PathStore, ViewsMatchViewBuilder) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  for (CountryCode cc : {AU, US, JP}) {
    expect_same_selection(store.national_view(cc),
                          ViewBuilder::national(paths, cc));
    expect_same_selection(store.international_view(cc),
                          ViewBuilder::international(paths, cc));
    expect_same_selection(store.outbound_view(cc),
                          ViewBuilder::outbound(paths, cc));
    expect_same_selection(store.view(cc, ViewKind::kOutbound),
                          ViewBuilder::outbound(paths, cc));
  }
}

TEST(PathStore, RestrictedToMatchesSpanBasedViews) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  std::vector<bgp::VpId> keep{bgp::VpId{2, 101}, bgp::VpId{3, 102}};

  CountryView via_store = store.international_view(AU).restricted_to(keep);
  CountryView via_spans =
      ViewBuilder::international(paths, AU).restricted_to(keep);
  expect_same_selection(via_store, via_spans);
  EXPECT_EQ(via_store.vp_count(), via_spans.vp_count());
  EXPECT_EQ(via_store.address_weight(), via_spans.address_weight());
}

TEST(PathStore, WithoutVpDropsExactlyThatVp) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  CountryView view = store.international_view(AU);
  CountryView rest = view.without_vp(bgp::VpId{2, 101});
  EXPECT_EQ(rest.size(), view.size() - 1);
  for (const sanitize::PathRecord sp : rest) {
    EXPECT_NE(sp.vp, (bgp::VpId{2, 101}));
  }
}

TEST(PathStore, VpCountMatchesVpsSize) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  for (CountryCode cc : {AU, US, JP}) {
    for (ViewKind kind :
         {ViewKind::kNational, ViewKind::kInternational, ViewKind::kOutbound}) {
      CountryView v = store.view(cc, kind);
      EXPECT_EQ(v.vp_count(), v.vps().size());
    }
  }
}

TEST(PathStore, StandaloneViewOwnsItsStore) {
  // from_paths views (and their derived subsets) must survive the source
  // vector's death: the view owns private columns.
  CountryView sub;
  {
    std::vector<SanitizedPath> paths = sample_paths();
    CountryView v = CountryView::from_paths(paths, AU, ViewKind::kNational);
    sub = v.restricted_to(v.vps());
  }
  ASSERT_EQ(sub.size(), sample_paths().size());
  EXPECT_GT(sub.address_weight(), 0u);
  EXPECT_EQ(sub[5].path.materialize(), sample_paths()[5].path);
}

TEST(PathStore, EmptyStore) {
  ShardedPathStore store{std::span<const SanitizedPath>{}};
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.arena_hop_count(), 0u);
  EXPECT_TRUE(store.vp_countries().empty());
  for (ViewKind kind :
       {ViewKind::kNational, ViewKind::kInternational, ViewKind::kOutbound}) {
    EXPECT_TRUE(store.view(AU, kind).empty());
  }
  CountryView standalone = CountryView::from_paths(
      std::vector<SanitizedPath>{}, AU, ViewKind::kNational);
  EXPECT_TRUE(standalone.empty());
  EXPECT_EQ(standalone.vp_count(), 0u);
  EXPECT_EQ(standalone.address_weight(), 0u);
}

// ---- The sharded store against the unsharded reference. ----
// The reference used to be a second, monolithic PathStore. It is now
// the span-based oracle: ViewBuilder and CountryRankings::compute(span)
// filter the one sanitized path set directly and share no code with the
// shards. The tests keep their names.

TEST(ShardedPathStore, InterningMatchesMonolithicStore) {
  const std::vector<SanitizedPath>& paths = mini_world_paths();
  ShardedPathStore store{paths};
  // Each distinct hop sequence is interned exactly once.
  std::set<std::string> distinct;
  std::size_t distinct_hops = 0;
  for (const SanitizedPath& p : paths) {
    if (distinct.insert(p.path.to_string()).second) {
      distinct_hops += p.path.size();
    }
  }
  EXPECT_EQ(store.size(), paths.size());
  EXPECT_LT(store.unique_path_count(), store.size());
  EXPECT_EQ(store.unique_path_count(), distinct.size());
  EXPECT_EQ(store.arena_hop_count(), distinct_hops);
}

TEST(ShardedPathStore, CensusDomainsMatchMonolithicStore) {
  const std::vector<SanitizedPath>& paths = mini_world_paths();
  ShardedPathStore store{paths};
  EXPECT_EQ(store.countries(), ViewBuilder::countries(paths));
  std::vector<CountryCode> vp_countries;
  for (const SanitizedPath& p : paths) {
    if (p.vp_country.valid()) vp_countries.push_back(p.vp_country);
  }
  std::sort(vp_countries.begin(), vp_countries.end());
  vp_countries.erase(std::unique(vp_countries.begin(), vp_countries.end()),
                     vp_countries.end());
  EXPECT_EQ(store.vp_countries(), vp_countries);
  EXPECT_TRUE(std::is_sorted(store.countries().begin(),
                             store.countries().end()));
}

// On a generated world, every country's national, international and
// outbound shard view selects exactly the rows the copy-based span
// filter does, in the same order.
TEST(ShardedPathStore, ViewsMatchMonolithicStore) {
  const std::span<const SanitizedPath> paths{mini_world_paths()};
  ShardedPathStore store{paths};
  ASSERT_FALSE(store.countries().empty());
  for (CountryCode cc : store.countries()) {
    SCOPED_TRACE(cc.to_string());
    const CountryView national = ViewBuilder::national(paths, cc);
    const CountryView international = ViewBuilder::international(paths, cc);
    const CountryView outbound = ViewBuilder::outbound(paths, cc);
    expect_same_selection(store.national_view(cc), national);
    expect_same_selection(store.international_view(cc), international);
    expect_same_selection(store.outbound_view(cc), outbound);
    expect_same_selection(store.view(cc, ViewKind::kNational), national);
    expect_same_selection(store.view(cc, ViewKind::kInternational),
                          international);
    expect_same_selection(store.view(cc, ViewKind::kOutbound), outbound);
  }
}

TEST(ShardedPathStore, MetricsBitIdenticalToMonolithicStore) {
  auto paths = sample_paths();
  ShardedPathStore sharded{paths};
  topo::AsGraph graph = sample_graph();
  CountryRankings rankings{graph};
  auto expect_bitwise = [](const rank::Ranking& a, const rank::Ranking& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.entries()[i].asn, b.entries()[i].asn);
      // Float accumulation order must match exactly, not approximately.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.entries()[i].score),
                std::bit_cast<std::uint64_t>(b.entries()[i].score));
    }
  };
  for (CountryCode cc : {AU, US, JP}) {
    CountryMetrics m1 = rankings.compute(paths, cc);
    CountryMetrics m2 = rankings.compute(sharded, cc);
    expect_bitwise(m1.cci, m2.cci);
    expect_bitwise(m1.ccn, m2.ccn);
    expect_bitwise(m1.ahi, m2.ahi);
    expect_bitwise(m1.ahn, m2.ahn);
    EXPECT_EQ(m1.national_vps, m2.national_vps);
    EXPECT_EQ(m1.international_vps, m2.international_vps);
    EXPECT_EQ(m1.national_addresses, m2.national_addresses);
    EXPECT_EQ(m1.international_addresses, m2.international_addresses);

    OutboundMetrics o1 = rankings.compute_outbound(paths, cc);
    OutboundMetrics o2 = rankings.compute_outbound(sharded, cc);
    expect_bitwise(o1.cco, o2.cco);
    expect_bitwise(o1.aho, o2.aho);
    EXPECT_EQ(o1.vps, o2.vps);
    EXPECT_EQ(o1.foreign_addresses, o2.foreign_addresses);
  }
}

TEST(ShardedPathStore, BuildIsIdenticalAcrossThreadCounts) {
  auto paths = sample_paths();
  ShardedPathStore one{paths, 1};
  ShardedPathStore four{paths, 4};
  ShardedPathStore sixteen{paths, 16};
  ASSERT_EQ(one.shards().size(), four.shards().size());
  ASSERT_EQ(one.shards().size(), sixteen.shards().size());
  for (CountryCode cc : {AU, US, JP}) {
    EXPECT_NE(one.shard_digest(cc), 0u);
    EXPECT_EQ(one.shard_digest(cc), four.shard_digest(cc));
    EXPECT_EQ(one.shard_digest(cc), sixteen.shard_digest(cc));
  }
}

TEST(ShardedPathStore, RowLandsInPrefixAndVpShardsOnce) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  // Row 1 (VP in US, prefix in AU) must appear in both shards.
  const PathShard* au = store.shard(AU);
  const PathShard* us = store.shard(US);
  ASSERT_NE(au, nullptr);
  ASSERT_NE(us, nullptr);
  auto shard_has = [](const PathShard& s, const SanitizedPath& p) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.vp(i) == p.vp && s.prefix(i) == p.prefix &&
          s.hops(i).materialize() == p.path) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(shard_has(*au, paths[1]));
  EXPECT_TRUE(shard_has(*us, paths[1]));
  // The un-geolocated VP's row (row 5) lives only in its prefix shard.
  EXPECT_TRUE(shard_has(*us, paths[5]));
  EXPECT_FALSE(shard_has(*au, paths[5]));
}

TEST(ShardedPathStore, InvalidAndUnknownCountriesNeverShard) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  EXPECT_EQ(store.shard(CountryCode{}), nullptr);
  EXPECT_EQ(store.shard(CountryCode::of("DE")), nullptr);
  EXPECT_EQ(store.shard_digest(CountryCode::of("DE")), 0u);
  EXPECT_TRUE(store.national_view(CountryCode::of("DE")).empty());
  EXPECT_TRUE(store.international_view(CountryCode{}).empty());
  EXPECT_TRUE(store.outbound_view(CountryCode::of("ZZ")).empty());
  for (const PathShard& shard : store.shards()) {
    EXPECT_TRUE(shard.country().valid());
  }
}

TEST(ShardedPathStore, SingleCountryWorld) {
  std::vector<SanitizedPath> paths{
      mk(1, AU, AsPath{100, 50, 200}, 1, AU),
      mk(5, AU, AsPath{100, 50}, 2, AU),
  };
  ShardedPathStore store{paths};
  ASSERT_EQ(store.shards().size(), 1u);
  EXPECT_EQ(store.countries(), std::vector<CountryCode>{AU});
  EXPECT_EQ(store.vp_countries(), std::vector<CountryCode>{AU});
  const PathShard* shard = store.shard(AU);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->size(), 2u);
  EXPECT_EQ(shard->national_rows().size(), 2u);
  EXPECT_TRUE(shard->international_rows().empty());
  EXPECT_TRUE(shard->outbound_rows().empty());
  EXPECT_TRUE(store.international_view(AU).empty());
}

TEST(ShardedPathStore, EmptyStore) {
  ShardedPathStore store{std::span<const SanitizedPath>{}};
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.unique_path_count(), 0u);
  EXPECT_TRUE(store.shards().empty());
  EXPECT_TRUE(store.countries().empty());
  EXPECT_TRUE(store.census_costs().empty());
  EXPECT_TRUE(store.national_view(AU).empty());
}

TEST(ShardedPathStore, CensusCostsTrackShardSize) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  const auto costs = store.census_costs();
  ASSERT_EQ(costs.size(), store.countries().size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const PathShard* shard = store.shard(store.countries()[i]);
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(costs[i], shard->cost());
    EXPECT_GE(shard->cost(), shard->size());
  }
}

TEST(ShardedPathStore, DigestReflectsContentNotIdentity) {
  auto paths = sample_paths();
  ShardedPathStore a{paths};
  ShardedPathStore b{paths};
  for (CountryCode cc : {AU, US, JP}) {
    EXPECT_EQ(a.shard_digest(cc), b.shard_digest(cc));
  }
  // Changing one row's weight must change exactly the shards that row
  // touches (AU prefix shard; the VP is in AU too).
  auto changed = sample_paths();
  changed[0].weight += 1;
  ShardedPathStore c{changed};
  EXPECT_NE(a.shard_digest(AU), c.shard_digest(AU));
  EXPECT_EQ(a.shard_digest(US), c.shard_digest(US));
  EXPECT_EQ(a.shard_digest(JP), c.shard_digest(JP));
}

// ---- Incremental rebuild: digest-verified shard reuse. ----

/// Queries after rebuild() must be indistinguishable from a fresh build
/// of the same rows — kept shards included.
void expect_equivalent_stores(const ShardedPathStore& rebuilt,
                              const ShardedPathStore& fresh) {
  EXPECT_EQ(rebuilt.size(), fresh.size());
  ASSERT_EQ(rebuilt.countries(), fresh.countries());
  EXPECT_EQ(rebuilt.vp_countries(), fresh.vp_countries());
  EXPECT_EQ(rebuilt.census_costs(), fresh.census_costs());
  topo::AsGraph graph = sample_graph();
  CountryRankings a{graph}, b{graph};
  for (CountryCode cc : fresh.countries()) {
    EXPECT_EQ(rebuilt.shard_digest(cc), fresh.shard_digest(cc));
    expect_same_selection(rebuilt.national_view(cc), fresh.national_view(cc));
    expect_same_selection(rebuilt.international_view(cc),
                          fresh.international_view(cc));
    expect_same_selection(rebuilt.outbound_view(cc), fresh.outbound_view(cc));
    CountryMetrics m1 = a.compute(rebuilt, cc);
    CountryMetrics m2 = b.compute(fresh, cc);
    ASSERT_EQ(m1.cci.size(), m2.cci.size());
    for (std::size_t i = 0; i < m1.cci.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m1.cci.entries()[i].score),
                std::bit_cast<std::uint64_t>(m2.cci.entries()[i].score));
    }
  }
}

TEST(ShardedPathStore, RebuildKeepsUntouchedShards) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};

  // Touch only AU: bump the weight of the AU-VP/AU-prefix row.
  auto changed = sample_paths();
  changed[0].weight += 1;
  ShardedPathStore::RebuildStats stats = store.rebuild(changed);
  EXPECT_EQ(stats.shards_rebuilt, 1u);
  EXPECT_EQ(stats.shards_kept, 2u);

  ShardedPathStore fresh{changed};
  expect_equivalent_stores(store, fresh);
}

TEST(ShardedPathStore, RebuildNoChangeKeepsEveryShard) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  ShardedPathStore::RebuildStats stats = store.rebuild(paths);
  EXPECT_EQ(stats.shards_rebuilt, 0u);
  EXPECT_EQ(stats.shards_kept, 3u);
  expect_equivalent_stores(store, ShardedPathStore{paths});
}

TEST(ShardedPathStore, RebuildHandlesCountryAppearingAndVanishing) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};

  // Drop both rows touching JP (one as prefix country, one as VP
  // country) and add a DE row: JP's shard must vanish, DE's must
  // appear, and the surviving countries stay correct.
  auto changed = sample_paths();
  changed.pop_back();                       // the JP-prefix row
  changed.erase(changed.begin() + 3);       // the JP-VP row
  changed.push_back(mk(6, CountryCode::of("DE"), AsPath{104, 60, 202}, 5,
                       CountryCode::of("DE")));
  store.rebuild(changed);
  EXPECT_EQ(store.shard(JP), nullptr);
  ASSERT_NE(store.shard(CountryCode::of("DE")), nullptr);
  expect_equivalent_stores(store, ShardedPathStore{changed});
}

TEST(ShardedPathStore, RebuildIsIdenticalAcrossThreadCounts) {
  auto paths = sample_paths();
  auto changed = sample_paths();
  changed[2].weight += 7;
  ShardedPathStore one{paths, 1};
  ShardedPathStore sixteen{paths, 16};
  one.rebuild(changed, 1);
  sixteen.rebuild(changed, 16);
  for (CountryCode cc : {AU, US, JP}) {
    EXPECT_EQ(one.shard_digest(cc), sixteen.shard_digest(cc));
  }
}

TEST(ShardedPathStore, RepeatedRebuildsStayEquivalent) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  // Interning survives across rebuilds until the dictionary compacts,
  // so unique_path_count may count paths no current row uses — queries
  // must stay equivalent regardless.
  for (std::uint64_t round = 1; round <= 4; ++round) {
    auto changed = sample_paths();
    changed[0].weight = 256 + round;
    store.rebuild(changed);
    expect_equivalent_stores(store, ShardedPathStore{changed});
  }
}

std::size_t row_hops(const std::vector<SanitizedPath>& paths) {
  std::size_t hops = 0;
  for (const SanitizedPath& sp : paths) hops += sp.path.size();
  return hops;
}

TEST(ShardedPathStore, CompactionBoundsTheDictionaryAcrossRebuilds) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  for (std::uint32_t round = 1; round <= 200; ++round) {
    // Row 0 takes a path no earlier round used, so without compaction
    // every round would leave three more dead hops in the arena.
    // Alternate a full rebuild with a one-row patch.
    auto fresh = sample_paths();
    fresh[0].path = AsPath{100, 50, 1000 + round};
    if (round % 2 == 0) {
      store.rebuild(fresh);
    } else {
      const std::uint32_t row = 0;
      store.patch(fresh, std::span{&row, 1}, std::span{&row, 1});
    }
    // Compaction fires once the arena passes twice the live rows' hops,
    // and one rebuild adds at most the live rows' hops on top.
    EXPECT_LE(store.arena_hop_count(), 3 * row_hops(fresh)) << "round " << round;
    expect_equivalent_stores(store, ShardedPathStore{fresh});
  }
}

TEST(ShardedPathStore, PatchRegathersOnlyTouchedShards) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};

  // Drop the JP-only row and insert a second US-prefix row from the US
  // VP between rows 2 and 3: JP and US change, AU keeps its rows.
  auto patched = sample_paths();
  patched.erase(patched.begin() + 6);
  patched.insert(patched.begin() + 3, mk(2, US, AsPath{101, 60, 202}, 5, US));
  const std::uint32_t erased[] = {6};
  const std::uint32_t inserted[] = {3};
  const ShardedPathStore::RebuildStats stats =
      store.patch(patched, erased, inserted);
  expect_equivalent_stores(store, ShardedPathStore{patched});
  EXPECT_EQ(stats.shards_kept, 1u);     // AU, moved without a re-digest
  EXPECT_EQ(stats.shards_rebuilt, 2u);  // US gained a row, JP lost one
  EXPECT_EQ(store.shard(AU)->digest(), ShardedPathStore{paths}.shard_digest(AU));

  // An edit that does not add up to the rows is refused, not applied.
  const std::uint32_t too_many[] = {0, 1};
  EXPECT_THROW(store.patch(patched, too_many, inserted), std::logic_error);
}

TEST(ShardedPathStore, RebuildToAndFromEmpty) {
  auto paths = sample_paths();
  ShardedPathStore store{paths};
  ShardedPathStore::RebuildStats stats =
      store.rebuild(std::span<const SanitizedPath>{});
  EXPECT_EQ(stats.shards_kept, 0u);
  EXPECT_EQ(stats.shards_rebuilt, 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.shards().empty());
  store.rebuild(paths);
  expect_equivalent_stores(store, ShardedPathStore{paths});
}

}  // namespace
}  // namespace georank::core
