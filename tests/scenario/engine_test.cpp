#include "scenario/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "gen/internet.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "serve/ranking_service.hpp"

namespace georank::scenario {
namespace {

using geo::CountryCode;

core::PipelineConfig config_for(const gen::World& world) {
  core::PipelineConfig cfg;
  cfg.sanitizer.clique = world.clique;
  cfg.sanitizer.route_server_asns = world.route_servers;
  return cfg;
}

/// An internet-preset world at `scale`, loaded.
struct InternetFixture {
  gen::InternetScaleGenerator generator;
  gen::World world;
  bgp::RibCollection ribs;
  core::Pipeline pipeline;

  explicit InternetFixture(double scale)
      : generator(gen::internet_spec(scale, 5)),
        world(generator.generate()),
        ribs(generator.synthesize_ribs(world)),
        pipeline(world.geo_db, world.vps, world.asn_registry, world.graph,
                 config_for(world)) {
    pipeline.load(ribs);
  }
};

/// De-peers the least-linked cross-country pair: the scenario that
/// touches the fewest shards, which is the case the memos are for.
Scenario thinnest_depeer(const gen::World& world) {
  std::map<std::pair<CountryCode, CountryCode>, std::size_t> border_links;
  for (bgp::Asn asn : world.graph.ases()) {
    auto a = world.as_registry.find(asn);
    if (a == world.as_registry.end()) continue;
    for (const topo::Neighbor& n :
         world.graph.neighbors(world.graph.id_of(asn))) {
      auto b = world.as_registry.find(world.graph.asn_of(n.id));
      if (b == world.as_registry.end() || a->second == b->second) continue;
      if (a->second.raw() < b->second.raw()) {
        ++border_links[{a->second, b->second}];
      }
    }
  }
  if (border_links.empty()) return Scenario{};
  auto thinnest = border_links.begin();
  for (auto it = border_links.begin(); it != border_links.end(); ++it) {
    if (it->second < thinnest->second) thinnest = it;
  }
  return parse("seed 3\ndepeer " + thinnest->first.first.to_string() + " " +
               thinnest->first.second.to_string() + "\n");
}

struct EngineFixture {
  gen::World world;
  bgp::RibCollection ribs;
  core::Pipeline pipeline;

  EngineFixture()
      : world(gen::InternetGenerator{gen::mini_world_spec(21)}.generate()),
        ribs(gen::RibGenerator{world, gen::NoiseSpec{}, 5}.generate(5)),
        pipeline(world.geo_db, world.vps, world.asn_registry, world.graph,
                 config_for(world)) {
    pipeline.load(ribs);
  }
};

TEST(WhatIfEngine, ReportShapeAndRepeatDeterminism) {
  EngineFixture f;
  WhatIfEngine engine{f.pipeline, f.world.graph, f.world.as_registry, f.ribs};
  const std::size_t countries = engine.baseline().size();
  ASSERT_GT(countries, 0u);

  Scenario s = parse("name t\nseed 3\ndepeer AU US\n");
  Report first = engine.run(s, 5);
  EXPECT_EQ(first.scenario, s);
  EXPECT_EQ(first.scenario_hash, content_hash(s));
  EXPECT_EQ(first.top_k, 5u);
  EXPECT_EQ(first.countries_total, countries);
  EXPECT_EQ(first.memo.shards_kept + first.memo.shards_rebuilt, countries);
  EXPECT_FALSE(first.shifts.empty());

  // Same query again: the engine re-armed the baseline in between, so
  // the counterfactual must come out bit-identical (JSON round-trips
  // every double, so string equality is bit equality).
  Report second = engine.run(s, 5);
  EXPECT_EQ(serve::render_whatif_json(first, 1),
            serve::render_whatif_json(second, 1));
  EXPECT_EQ(render_csv(first), render_csv(second));
  EXPECT_EQ(render_text(first), render_text(second));
}

TEST(WhatIfEngine, NoOpScenarioKeepsEveryShardAndMemo) {
  EngineFixture f;
  WhatIfEngine engine{f.pipeline, f.world.graph, f.world.as_registry, f.ribs};
  const std::size_t countries = engine.baseline().size();

  // ZU/ZV register no ASes, so the de-peering selects the empty edge
  // set: every entry is kept byte-identical, every shard digest
  // matches, and every memoized ranking survives untouched.
  Report report = engine.run(parse("seed 3\ndepeer ZU ZV\n"), 5);
  EXPECT_EQ(report.apply.edges_removed, 0u);
  EXPECT_EQ(report.apply.entries_rerouted, 0u);
  EXPECT_EQ(report.apply.entries_kept, f.ribs.total_entries());
  EXPECT_EQ(report.memo.shards_kept, countries);
  EXPECT_EQ(report.memo.shards_rebuilt, 0u);
  // Every country's census memo survives untouched.
  EXPECT_EQ(report.memo.memos_kept, countries);
  EXPECT_EQ(report.memo.memos_evicted, 0u);
  EXPECT_TRUE(report.shifts.empty());
}

TEST(WhatIfEngine, SingleDepeerReusesUntouchedCountryMemos) {
  // The memo-reuse acceptance check: on a world with many countries,
  // severing ONE cross-border link must leave most countries' shard
  // digests untouched, and the report must prove their rankings were
  // reused, not recomputed.
  InternetFixture f{1.0};
  WhatIfEngine engine{f.pipeline, f.world.graph, f.world.as_registry, f.ribs};
  Report report = engine.run(thinnest_depeer(f.world), 5);
  EXPECT_GT(report.apply.edges_removed, 0u);
  EXPECT_GT(report.memo.shards_kept, 0u)
      << "a single de-peering rebuilt every country's shard";
  EXPECT_GT(report.memo.memos_kept, 0u);
  EXPECT_EQ(report.memo.shards_kept + report.memo.shards_rebuilt,
            report.countries_total);
  EXPECT_LT(report.shifts.size(), report.countries_total);
}

TEST(WhatIfEngine, MemoAssistedCensusMatchesColdLoadOfEditedWorld) {
  // The memo-assisted counterfactual must be the census a cold load of
  // the edited collection computes: a kept memo that should have been
  // evicted shows up here as a missing or stale shift.
  InternetFixture f{0.5};
  WhatIfEngine engine{f.pipeline, f.world.graph, f.world.as_registry, f.ribs};
  const Scenario s = thinnest_depeer(f.world);
  Report got = engine.run(s, 10);
  ASSERT_GT(got.memo.memos_kept, 0u);

  ApplyResult edited = apply(s, f.world.graph, f.world.as_registry, f.ribs);
  core::Pipeline cold{f.world.geo_db, f.world.vps, f.world.asn_registry,
                      f.world.graph, config_for(f.world)};
  cold.load(edited.ribs);
  Report want = build_report(s, edited.stats, got.memo, engine.baseline(),
                             cold.all_countries(), 10);
  ASSERT_FALSE(want.shifts.empty());
  EXPECT_EQ(serve::render_whatif_json(got, 1),
            serve::render_whatif_json(want, 1));
}

TEST(WhatIfEngine, CounterfactualBitIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const char* threads : {"1", "4", "16"}) {
    ::setenv("GEORANK_THREADS", threads, 1);
    EngineFixture f;
    WhatIfEngine engine{f.pipeline, f.world.graph, f.world.as_registry,
                        f.ribs};
    Report report = engine.run(
        parse("seed 3\ndepeer AU US\ncablecut DE 0.4\n"), 5);
    const std::string json = serve::render_whatif_json(report, 7);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "GEORANK_THREADS=" << threads;
    }
  }
  ::unsetenv("GEORANK_THREADS");
}

}  // namespace
}  // namespace georank::scenario
