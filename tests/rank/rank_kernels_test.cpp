// The dense-id customer-cone and hegemony kernels against the hash-map
// oracle (reference_kernels.hpp): the same ASes in the same order and
// bit-identical scores, on random path sets, on every country view of
// two generated worlds, and on the paper's worked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "core/sharded_path_store.hpp"
#include "figure_cases.hpp"
#include "gen/internet.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "rank/customer_cone.hpp"
#include "rank/hegemony.hpp"
#include "reference_kernels.hpp"
#include "sanitize/path_sanitizer.hpp"
#include "util/rng.hpp"

namespace georank::rank {
namespace {

using bgp::AsPath;
using bgp::Asn;
using sanitize::PathsView;
using sanitize::SanitizedPath;

void expect_same_ranking(const Ranking& dense, const Ranking& oracle,
                         const std::string& what) {
  ASSERT_EQ(dense.size(), oracle.size()) << what;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense.entries()[i].asn, oracle.entries()[i].asn) << what << " #" << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(dense.entries()[i].score),
              std::bit_cast<std::uint64_t>(oracle.entries()[i].score))
        << what << " AS" << dense.entries()[i].asn;
  }
}

template <typename Set>
std::vector<typename Set::value_type> sorted(const Set& set) {
  std::vector<typename Set::value_type> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

const HegemonyOptions kHegemonyOptions[] = {
    HegemonyOptions{},
    HegemonyOptions{0.10, true, true},    // exclude_vp_as
    HegemonyOptions{0.10, false, false},  // unweighted
    HegemonyOptions{0.25, true, false},
};

/// Both kernels on one path set. `per_as` also compares every AS's cone
/// members, prefix cone and address total (small inputs only).
void expect_kernels_match(const topo::AsGraph& graph, PathsView paths,
                          const std::string& what, bool per_as) {
  const ConeResult dense = CustomerCone{graph}.compute(paths);
  const reference::ConeResult oracle = reference::customer_cone(graph, paths);
  EXPECT_EQ(dense.total_weight, oracle.total_weight) << what;
  expect_same_ranking(dense.by_addresses(), oracle.by_addresses(),
                      what + ": cone by addresses");
  expect_same_ranking(dense.by_as_count(), oracle.by_as_count(),
                      what + ": cone by AS count");
  if (per_as) {
    for (const auto& [asn, cone] : oracle.as_cone) {
      ASSERT_EQ(dense.members(asn), sorted(cone)) << what << " AS" << asn;
      ASSERT_EQ(dense.prefix_cone_of(asn), sorted(oracle.prefix_cone_of(asn)))
          << what << " AS" << asn;
      ASSERT_EQ(dense.cone_addresses(asn), oracle.cone_addresses(asn))
          << what << " AS" << asn;
    }
  }

  for (const HegemonyOptions& options : kHegemonyOptions) {
    const std::string tag = what + ": hegemony trim=" + std::to_string(options.trim) +
                            " exclude_vp=" + std::to_string(options.exclude_vp_as) +
                            " weighted=" + std::to_string(options.weight_by_addresses);
    const HegemonyResult h = Hegemony{options}.compute(paths);
    const reference::HegemonyResult ref = reference::hegemony(paths, options);
    EXPECT_EQ(h.vp_count, ref.vp_count) << tag;
    ASSERT_EQ(h.scores.size(), ref.scores.size()) << tag;
    for (std::size_t i = 0; i + 1 < h.scores.size(); ++i) {
      ASSERT_LT(h.scores[i].asn, h.scores[i + 1].asn) << tag;
    }
    for (const ScoredAs& entry : h.scores) {
      ASSERT_TRUE(ref.scores.contains(entry.asn)) << tag << " AS" << entry.asn;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(entry.score),
                std::bit_cast<std::uint64_t>(ref.scores.at(entry.asn)))
          << tag << " AS" << entry.asn;
    }
    expect_same_ranking(h.ranking(), ref.ranking(), tag);
  }
}

/// Column form of `rows` over one interned arena, as a store shard lays
/// them out: equal hop sequences share one arena slice.
struct InternedRows {
  explicit InternedRows(const std::vector<SanitizedPath>& rows) {
    for (const SanitizedPath& row : rows) {
      vp.push_back(row.vp);
      vp_country.push_back(row.vp_country);
      prefix.push_back(row.prefix);
      prefix_country.push_back(row.prefix_country);
      weight.push_back(row.weight);
      handle.push_back(interner.handle(interner.intern(row.path.hops())));
    }
  }

  [[nodiscard]] sanitize::PathColumns columns() const {
    return {vp.data(),     vp_country.data(), prefix.data(), prefix_country.data(),
            weight.data(), handle.data(),     interner.arena()};
  }

  sanitize::PathInterner interner;
  std::vector<bgp::VpId> vp;
  std::vector<geo::CountryCode> vp_country;
  std::vector<bgp::Prefix> prefix;
  std::vector<geo::CountryCode> prefix_country;
  std::vector<std::uint64_t> weight;
  std::vector<sanitize::PathHandle> handle;
};

struct RandomCase {
  topo::AsGraph graph;
  std::vector<SanitizedPath> rows;
};

/// A small random world: relationships of every kind (and none), paths
/// drawn from a short list so they repeat, non-adjacent repeated hops,
/// empty paths, MOAS prefixes, zero-weight rows, weights too large for a
/// double to sum exactly, and rows that disagree on a prefix's weight.
RandomCase random_case(std::uint64_t seed) {
  util::Pcg32 rng{seed};
  RandomCase out;
  const std::uint32_t as_count = 8 + rng.below(24);
  for (Asn a = 1; a <= as_count; ++a) out.graph.add_as(a);
  for (Asn a = 1; a <= as_count; ++a) {
    for (Asn b = a + 1; b <= as_count; ++b) {
      const std::uint32_t kind = rng.below(6);
      if (kind == 0) out.graph.add_p2p(a, b);
      if (kind == 1 || kind == 2) out.graph.add_p2c(a, b);
      if (kind == 3) out.graph.add_p2c(b, a);
    }
  }
  std::vector<AsPath> shapes;
  for (std::uint32_t s = 0, n = 4 + rng.below(20); s < n; ++s) {
    AsPath path;
    for (std::uint32_t h = 0, len = rng.below(7); h < len; ++h) {
      path.push_back(1 + rng.below(as_count));
      // An AS the graph does not know: its links are unknown.
      if (rng.chance(0.1)) path.push_back(as_count + 1 + rng.below(3));
    }
    shapes.push_back(std::move(path));
  }
  const std::uint32_t prefix_count = 1 + rng.below(12);
  for (std::uint32_t r = 0, n = rng.below(80); r < n; ++r) {
    SanitizedPath row;
    row.path = shapes[rng.below(static_cast<std::uint32_t>(shapes.size()))];
    const std::uint32_t vp_as = row.path.empty() ? 1 : row.path[0];
    row.vp = bgp::VpId{rng.below(4), vp_as};
    const std::uint32_t p = rng.below(prefix_count);
    row.prefix = bgp::Prefix{0x0A000000 + p * 256, static_cast<std::uint8_t>(20 + p % 5)};
    row.weight = row.prefix.size() + (rng.chance(0.1) ? 7 : 0);
    if (rng.chance(0.15)) row.weight = 0;
    // Past 2^53 a double sum rounds, so its order shows in the low bits.
    if (rng.chance(0.2)) row.weight = (std::uint64_t{rng.next()} << 30) | rng.next();
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::vector<SanitizedPath> sanitized(const gen::World& world,
                                     const bgp::RibCollection& ribs) {
  sanitize::SanitizerOptions options;
  options.clique = world.clique;
  options.route_server_asns = world.route_servers;
  return sanitize::PathSanitizer{world.geo_db, world.vps, world.asn_registry, options}
      .run(ribs)
      .paths;
}

/// Every country x view kind of a generated world's store.
void expect_world_matches(const gen::World& world, const bgp::RibCollection& ribs,
                          const std::string& name) {
  const std::vector<SanitizedPath> rows = sanitized(world, ribs);
  ASSERT_FALSE(rows.empty()) << name;
  const core::ShardedPathStore store{rows};
  for (const geo::CountryCode cc : store.countries()) {
    for (const core::ViewKind kind : {core::ViewKind::kNational,
                                      core::ViewKind::kInternational,
                                      core::ViewKind::kOutbound}) {
      const core::CountryView view = store.view(cc, kind);
      expect_kernels_match(world.graph, view.paths(),
                           name + " " + cc.to_string() + " view " +
                               std::to_string(static_cast<int>(kind)),
                           false);
    }
  }
  expect_kernels_match(world.graph, PathsView{rows}, name + " all rows", false);
}

TEST(RankKernels, DenseMatchesHashMapOracle) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const RandomCase c = random_case(seed);
    const std::string name = "random seed " + std::to_string(seed);
    expect_kernels_match(c.graph, PathsView{c.rows}, name + " rows", true);
    const InternedRows interned{c.rows};
    const PathsView columns{interned.columns(), c.rows.size()};
    expect_kernels_match(c.graph, columns, name + " columns", true);
    // An index-selected subset that repeats and skips rows.
    std::vector<std::uint32_t> subset;
    for (std::uint32_t k = 0; k < c.rows.size(); k += 1 + k % 3) {
      subset.push_back(k);
      if (k % 5 == 0) subset.push_back(k);
    }
    expect_kernels_match(c.graph, columns.rebase(subset), name + " subset", true);
  }

  {
    const gen::World world = gen::InternetGenerator{gen::mini_world_spec(5)}.generate();
    expect_world_matches(world, gen::RibGenerator{world, gen::NoiseSpec{}, 7}.generate(5),
                         "mini");
  }
  {
    const gen::InternetScaleGenerator generator{gen::internet_spec(0.25, 2401)};
    const gen::World world = generator.generate();
    expect_world_matches(world, generator.synthesize_ribs(world), "0.25x");
  }

  const std::vector<SanitizedPath> figure1 = figures::figure1_paths();
  expect_kernels_match(figures::figure1_graph(), PathsView{figure1}, "figure 1", true);
  const std::vector<SanitizedPath> figure2 = figures::figure2_paths();
  expect_kernels_match(topo::AsGraph{}, PathsView{figure2}, "figure 2", true);
  const std::vector<SanitizedPath> peering = figures::peering_paths();
  expect_kernels_match(figures::peering_graph(), PathsView{peering},
                       "figure 2 peering", true);
}

}  // namespace
}  // namespace georank::rank
