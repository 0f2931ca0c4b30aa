#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>

#include "bgp/update_stream.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "geo/geo_db.hpp"
#include "geo/vp_geolocator.hpp"
#include "sanitize/asn_registry.hpp"
#include "topo/as_graph.hpp"

namespace georank::core {
namespace {

using geo::CountryCode;

struct PipelineFixture {
  gen::World world;
  bgp::RibCollection ribs;

  PipelineFixture()
      : world(gen::InternetGenerator{gen::mini_world_spec(21)}.generate()) {
    gen::NoiseSpec noise;  // defaults: mild, realistic
    ribs = gen::RibGenerator{world, noise, 5}.generate(5);
  }

  PipelineConfig config() const {
    PipelineConfig cfg;
    cfg.sanitizer.clique = world.clique;
    cfg.sanitizer.route_server_asns = world.route_servers;
    return cfg;
  }
};

TEST(Pipeline, ThrowsBeforeLoad) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  EXPECT_FALSE(pipeline.loaded());
  EXPECT_THROW((void)pipeline.sanitized(), std::logic_error);
  EXPECT_THROW((void)pipeline.store(), std::logic_error);
  EXPECT_THROW((void)pipeline.outbound(CountryCode::of("AU")), std::logic_error);
  EXPECT_THROW((void)pipeline.all_countries(), std::logic_error);
  EXPECT_THROW((void)pipeline.cti(CountryCode::of("AU")), std::logic_error);
  EXPECT_THROW((void)pipeline.geo_evidence(CountryCode::of("AU")),
               std::logic_error);
  try {
    (void)pipeline.country(CountryCode::of("AU"));
    FAIL() << "country() before load() must throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "Pipeline::country(): no RIBs loaded");
  }
}

TEST(Pipeline, LoadStructRuns) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  ASSERT_TRUE(pipeline.loaded());
  EXPECT_GT(pipeline.sanitized().paths.size(), 100u);
  EXPECT_GT(pipeline.sanitized().stats.accepted, 0u);
}

TEST(Pipeline, TextRoundTripMatchesStructLoad) {
  PipelineFixture f;
  Pipeline direct{f.world.geo_db, f.world.vps, f.world.asn_registry,
                  f.world.graph, f.config()};
  direct.load(f.ribs);

  Pipeline via_text{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  via_text.load_text(bgp::to_mrt_text(f.ribs));
  EXPECT_EQ(via_text.parse_stats().malformed, 0u);
  EXPECT_EQ(via_text.parse_stats().parsed, f.ribs.total_entries());

  EXPECT_EQ(direct.sanitized().paths.size(), via_text.sanitized().paths.size());
  EXPECT_EQ(direct.sanitized().stats.accepted,
            via_text.sanitized().stats.accepted);
  // The streaming loader fills throughput accounting.
  EXPECT_GT(via_text.parse_stats().bytes, 0u);
  EXPECT_GT(via_text.parse_stats().elapsed_seconds, 0.0);
}

TEST(Pipeline, StrictIngestThrowsOnMalformedText) {
  PipelineFixture f;
  PipelineConfig cfg = f.config();
  cfg.ingest.mode = bgp::ParseMode::kStrict;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, cfg};
  std::string text = bgp::to_mrt_text(f.ribs) + "garbage line\n";
  EXPECT_THROW(pipeline.load_text(text), bgp::MrtParseError);
  EXPECT_FALSE(pipeline.loaded());  // nothing was sanitized

  // The same text loads fine under the tolerant default, with the drop
  // attributed per reason.
  Pipeline tolerant{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  tolerant.load_text(text);
  EXPECT_EQ(tolerant.parse_stats().malformed, 1u);
  EXPECT_EQ(tolerant.parse_stats().bad_field_count, 1u);
}

TEST(Pipeline, CountryMetricsComputed) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  CountryMetrics au = pipeline.country(CountryCode::of("AU"));
  EXPECT_FALSE(au.cci.empty());
  EXPECT_FALSE(au.ccn.empty());
  EXPECT_FALSE(au.ahi.empty());
  EXPECT_FALSE(au.ahn.empty());
  EXPECT_GT(au.national_vps, 0u);
  EXPECT_GT(au.international_vps, au.national_vps);
}

TEST(Pipeline, GlobalBaselinesComputed) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  EXPECT_FALSE(pipeline.global_cone_by_as_count().empty());
  EXPECT_FALSE(pipeline.global_cone_by_addresses().empty());
  EXPECT_FALSE(pipeline.global_hegemony().empty());
  EXPECT_FALSE(pipeline.ahc(f.world.as_registry, CountryCode::of("AU")).empty());
  EXPECT_FALSE(pipeline.cti(CountryCode::of("AU")).empty());
}

void expect_bitwise_equal(const rank::Ranking& a, const rank::Ranking& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].asn, b.entries()[i].asn);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.entries()[i].score),
              std::bit_cast<std::uint64_t>(b.entries()[i].score));
  }
}

void expect_bitwise_equal(const CountryMetrics& a, const CountryMetrics& b) {
  EXPECT_EQ(a.country, b.country);
  EXPECT_EQ(a.national_vps, b.national_vps);
  EXPECT_EQ(a.international_vps, b.international_vps);
  EXPECT_EQ(a.national_addresses, b.national_addresses);
  EXPECT_EQ(a.international_addresses, b.international_addresses);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.geo_consensus),
            std::bit_cast<std::uint64_t>(b.geo_consensus));
  expect_bitwise_equal(a.cci, b.cci);
  expect_bitwise_equal(a.ccn, b.ccn);
  expect_bitwise_equal(a.ahi, b.ahi);
  expect_bitwise_equal(a.ahn, b.ahn);
}

TEST(Pipeline, AllCountriesCoversCensusAndMatchesSingleQueries) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);

  std::vector<CountryMetrics> census = pipeline.all_countries();
  ASSERT_EQ(census.size(), pipeline.store().countries().size());
  for (std::size_t i = 0; i < census.size(); ++i) {
    EXPECT_EQ(census[i].country, pipeline.store().countries()[i]);  // sorted
    expect_bitwise_equal(census[i], pipeline.country(census[i].country));
  }
}

TEST(Pipeline, AllCountriesDeterministicAcrossThreadCounts) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);

  ASSERT_EQ(setenv("GEORANK_THREADS", "1", 1), 0);
  std::vector<CountryMetrics> serial = pipeline.all_countries();
  for (const char* threads : {"4", "16"}) {
    pipeline.clear_caches();
    ASSERT_EQ(setenv("GEORANK_THREADS", threads, 1), 0);
    std::vector<CountryMetrics> parallel = pipeline.all_countries();
    ASSERT_EQ(serial.size(), parallel.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_bitwise_equal(serial[i], parallel[i]);
    }
  }
  unsetenv("GEORANK_THREADS");
}

TEST(Pipeline, MemoizedQueriesSurviveReload) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  CountryMetrics first = pipeline.country(CountryCode::of("AU"));
  expect_bitwise_equal(first, pipeline.country(CountryCode::of("AU")));

  // Reload invalidates the memo cache but reproduces identical inputs,
  // so the recomputed result must match too.
  pipeline.load(f.ribs);
  expect_bitwise_equal(first, pipeline.country(CountryCode::of("AU")));
}

// Hand-built two-country world whose AU and US paths are fully disjoint
// (distinct VPs, prefixes and ASNs), so a reload that changes one
// country's RIB entries must evict exactly that country's memo entries
// and keep the other's warm.
struct TwoCountryFixture {
  geo::GeoDatabase geo_db;
  geo::VpGeolocator vps;
  sanitize::AsnRegistry registry = sanitize::AsnRegistry::permissive();
  topo::AsGraph graph;
  CountryCode au = CountryCode::of("AU");
  CountryCode us = CountryCode::of("US");

  TwoCountryFixture() {
    geo_db.add_range(0x0A000000, 0x0A0000FF, au);
    geo_db.add_range(0x0B000000, 0x0B0000FF, us);
    geo_db.finalize();
    vps.add_collector({"au-col", au, false});
    vps.add_collector({"us-col", us, false});
    vps.register_vp(bgp::VpId{1, 100}, "au-col");
    vps.register_vp(bgp::VpId{2, 101}, "us-col");
    graph.add_p2c(100, 200);
    graph.add_p2c(101, 201);
    graph.add_p2c(101, 202);  // only announced by the "grown" US RIB
  }

  bgp::RibCollection ribs(bool extra_us_prefix) const {
    bgp::RibSnapshot day;
    day.day = 1;
    day.entries.push_back(
        {bgp::VpId{1, 100}, bgp::Prefix{0x0A000000, 24}, bgp::AsPath{100, 200}});
    day.entries.push_back(
        {bgp::VpId{2, 101}, bgp::Prefix{0x0B000000, 24}, bgp::AsPath{101, 201}});
    if (extra_us_prefix) {
      day.entries.push_back({bgp::VpId{2, 101}, bgp::Prefix{0x0B000080, 25},
                             bgp::AsPath{101, 202}});
    }
    return bgp::RibCollection{{std::move(day)}};
  }
};

TEST(Pipeline, ReloadEvictsOnlyChangedCountries) {
  TwoCountryFixture f;
  Pipeline pipeline{f.geo_db, f.vps, f.registry, f.graph, {}};
  pipeline.load(f.ribs(false));
  std::vector<CountryMetrics> census = pipeline.all_countries();
  ASSERT_EQ(census.size(), 2u);
  ASSERT_EQ(census[0].country, f.au);  // sorted by code
  (void)pipeline.outbound(f.au);
  (void)pipeline.outbound(f.us);
  EXPECT_EQ(pipeline.cache_stats().countries, 2u);
  EXPECT_EQ(pipeline.cache_stats().outbounds, 2u);

  // Reloading identical RIBs: every shard digest matches, nothing evicted.
  pipeline.load(f.ribs(false));
  EXPECT_EQ(pipeline.cache_stats().countries, 2u);
  EXPECT_EQ(pipeline.cache_stats().outbounds, 2u);

  // Growing the US RIB changes the US shard (and its geo evidence) but
  // leaves AU's bit-identical: only the US entries are dropped.
  pipeline.load(f.ribs(true));
  EXPECT_EQ(pipeline.cache_stats().countries, 1u);
  EXPECT_EQ(pipeline.cache_stats().outbounds, 1u);
  expect_bitwise_equal(census[0], pipeline.country(f.au));

  // The recomputed US result sees the extra origin AS behind the /25 in
  // its national ranking (the fixture has no international paths), and
  // the cache is full again after the query.
  CountryMetrics us_after = pipeline.country(f.us);
  EXPECT_GT(us_after.ccn.size(), census[1].ccn.size());
  EXPECT_EQ(pipeline.cache_stats().countries, 2u);

  // clear_caches() still empties everything unconditionally.
  pipeline.clear_caches();
  EXPECT_EQ(pipeline.cache_stats().countries, 0u);
  EXPECT_EQ(pipeline.cache_stats().outbounds, 0u);
}

TEST(Pipeline, CountryMetricsCarryConfidenceAnnotation) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  CountryMetrics au = pipeline.country(CountryCode::of("AU"));
  // The mini world gives every country several VPs per view and clean
  // geolocation, so the paper-default policy rates it high.
  EXPECT_EQ(au.confidence, core::ConfidenceTier::kHigh);
  EXPECT_DOUBLE_EQ(au.geo_consensus, 1.0);
  Pipeline::GeoEvidence evidence = pipeline.geo_evidence(CountryCode::of("AU"));
  EXPECT_GT(evidence.accepted, 0u);

  // A stricter policy downgrades the same evidence.
  PipelineConfig strict = f.config();
  strict.degradation.min_vps = 1000;
  Pipeline demanding{f.world.geo_db, f.world.vps, f.world.asn_registry,
                     f.world.graph, strict};
  demanding.load(f.ribs);
  EXPECT_EQ(demanding.country(CountryCode::of("AU")).confidence,
            core::ConfidenceTier::kDegraded);
}

TEST(Pipeline, ZeroGeolocatedCountryReturnsFlaggedEmptyResult) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  // FR exists as a country code but has no prefix in the mini world: the
  // query must not throw and must not fabricate a ranking — it returns
  // empty metrics flagged insufficient.
  CountryCode fr = CountryCode::of("FR");
  ASSERT_EQ(pipeline.geo_evidence(fr).accepted, 0u);
  CountryMetrics metrics = pipeline.country(fr);
  EXPECT_TRUE(metrics.cci.empty());
  EXPECT_TRUE(metrics.ahn.empty());
  EXPECT_EQ(metrics.national_vps, 0u);
  EXPECT_EQ(metrics.confidence, core::ConfidenceTier::kInsufficient);
  EXPECT_DOUBLE_EQ(metrics.geo_consensus, 1.0);  // nothing rejected either
}

TEST(Pipeline, ConcurrentCountryQueriesRaceReloadSafely) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  const CountryMetrics baseline = pipeline.country(CountryCode::of("AU"));

  // Reloading the same RIBs reproduces an identical world, so every
  // result a racing reader observes — pre- or post-reload — must be
  // bitwise equal to the baseline. The shared reload lock guarantees no
  // reader ever sees a half-swapped world.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        CountryMetrics m = pipeline.country(CountryCode::of("AU"));
        if (m.cci.size() != baseline.cci.size() ||
            m.national_vps != baseline.national_vps ||
            m.confidence != baseline.confidence) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 5; ++i) pipeline.load(f.ribs);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  expect_bitwise_equal(baseline, pipeline.country(CountryCode::of("AU")));
}

TEST(Pipeline, LoadIsNotStarvedByBackToBackQueries) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  (void)pipeline.country(CountryCode::of("AU"));

  // Memo hits overlap back to back, so some reader always holds the
  // shared reload lock. A reader-preferring lock would keep load() out
  // for as long as the readers run; the writer gate must let it in.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)pipeline.country(CountryCode::of("AU"));
      }
    });
  }
  std::future<void> reloads = std::async(std::launch::async, [&] {
    for (int i = 0; i < 3; ++i) pipeline.load(f.ribs);
  });
  const bool finished =
      reloads.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  stop.store(true);
  for (std::thread& t : readers) t.join();
  reloads.get();
  EXPECT_TRUE(finished) << "three load() calls waited over 30 s on readers";
}

TEST(Pipeline, GlobalConeTopIsTier1) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  rank::Ranking ccg = pipeline.global_cone_by_as_count();
  // The largest cone in the mini world belongs to one of the tier-1s.
  bgp::Asn top = ccg.entries()[0].asn;
  EXPECT_TRUE(std::find(f.world.clique.begin(), f.world.clique.end(), top) !=
              f.world.clique.end())
      << "top AS " << top;
}

// ---- apply_updates: the incremental reload behind the live pipeline. ----

void expect_bitwise_metrics(const CountryMetrics& a, const CountryMetrics& b) {
  ASSERT_EQ(a.country, b.country);
  ASSERT_EQ(a.cci.size(), b.cci.size());
  for (std::size_t i = 0; i < a.cci.size(); ++i) {
    EXPECT_EQ(a.cci.entries()[i].asn, b.cci.entries()[i].asn);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cci.entries()[i].score),
              std::bit_cast<std::uint64_t>(b.cci.entries()[i].score));
  }
  ASSERT_EQ(a.ahn.size(), b.ahn.size());
  for (std::size_t i = 0; i < a.ahn.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ahn.entries()[i].score),
              std::bit_cast<std::uint64_t>(b.ahn.entries()[i].score));
  }
  EXPECT_EQ(a.national_vps, b.national_vps);
  EXPECT_EQ(a.international_addresses, b.international_addresses);
}

TEST(Pipeline, ApplyUpdatesBitIdenticalToFreshLoad) {
  PipelineFixture f;

  // Incremental path: first apply is the initial load (everything is
  // new), second apply grows the collection by two more days.
  Pipeline incremental{f.world.geo_db, f.world.vps, f.world.asn_registry,
                       f.world.graph, f.config()};
  bgp::RibCollection first_days;
  first_days.days.assign(f.ribs.days.begin(), f.ribs.days.begin() + 3);
  Pipeline::ApplyResult r1 = incremental.apply_updates(first_days);
  ASSERT_TRUE(incremental.loaded());
  EXPECT_EQ(r1.shards_kept, 0u);
  EXPECT_EQ(r1.shards_rebuilt, incremental.store().shards().size());
  Pipeline::ApplyResult r2 = incremental.apply_updates(f.ribs);
  EXPECT_EQ(r2.shards_kept + r2.shards_rebuilt,
            incremental.store().shards().size());

  // Batch path: one fresh load of the final collection.
  Pipeline fresh{f.world.geo_db, f.world.vps, f.world.asn_registry,
                 f.world.graph, f.config()};
  fresh.load(f.ribs);

  std::vector<CountryMetrics> got = incremental.all_countries();
  std::vector<CountryMetrics> want = fresh.all_countries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_bitwise_metrics(got[i], want[i]);
  }
}

TEST(Pipeline, ApplyUpdatesFinalDayChangeMatchesColdLoad) {
  PipelineFixture f;
  Pipeline incremental{f.world.geo_db, f.world.vps, f.world.asn_registry,
                       f.world.graph, f.config()};
  Pipeline::ApplyResult r1 = incremental.apply_updates(f.ribs);
  EXPECT_FALSE(r1.sanitize_fast_path);
  EXPECT_EQ(r1.days_resanitized, f.ribs.days.size());

  // Duplicate one final-day entry: apply_updates re-sanitizes every day.
  bgp::RibCollection changed = f.ribs;
  changed.days.back().entries.push_back(changed.days.back().entries.front());
  Pipeline::ApplyResult r2 = incremental.apply_updates(changed);
  EXPECT_FALSE(r2.sanitize_fast_path);
  EXPECT_EQ(r2.days_resanitized, changed.days.size());

  // The applied world must be bit-identical to a fresh batch load.
  Pipeline fresh{f.world.geo_db, f.world.vps, f.world.asn_registry,
                 f.world.graph, f.config()};
  fresh.load(changed);
  std::vector<CountryMetrics> got = incremental.all_countries();
  std::vector<CountryMetrics> want = fresh.all_countries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_bitwise_metrics(got[i], want[i]);
  }
}

TEST(Pipeline, ApplyUpdatesNoChangeKeepsShardsAndMemos) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.apply_updates(f.ribs);
  // Warm the memo cache for every country.
  const std::size_t census = pipeline.all_countries().size();
  ASSERT_GT(census, 0u);

  // Re-applying the identical collection must keep every shard and every
  // memoized result, as a quiet live flush needs.
  Pipeline::ApplyResult r = pipeline.apply_updates(f.ribs);
  EXPECT_EQ(r.shards_rebuilt, 0u);
  EXPECT_EQ(r.shards_kept, pipeline.store().shards().size());
  EXPECT_EQ(r.memos_evicted, 0u);
  EXPECT_GE(r.memos_kept, census);
  EXPECT_GE(pipeline.cache_stats().countries, census);
}

// ---- checkpoint/restore: the what-if engine's cheap re-arm. ----

TEST(Pipeline, CheckpointRestoreIsBitIdenticalWithoutResanitizing) {
  PipelineFixture f;
  // A replayed archive is keyed by route, so apply_delta can take it.
  const bgp::RibCollection ribs =
      bgp::replay_to_collection(bgp::collection_to_updates(f.ribs));
  const int day = ribs.days.back().day;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(ribs);
  ASSERT_TRUE(pipeline.apply_delta(day, {}).has_value());
  std::vector<CountryMetrics> want = pipeline.all_countries();
  Pipeline::Checkpoint chk = pipeline.checkpoint();

  // Swap a genuinely different world in, then restore the checkpoint.
  bgp::RibCollection shrunk;
  shrunk.days.assign(ribs.days.begin(), ribs.days.end() - 1);
  (void)pipeline.apply_updates(shrunk);
  Pipeline::ApplyResult r = pipeline.restore(chk);
  EXPECT_EQ(r.shards_kept + r.shards_rebuilt, pipeline.store().shards().size());
  EXPECT_FALSE(r.sanitize_fast_path);
  EXPECT_EQ(r.days_resanitized, 0u);

  std::vector<CountryMetrics> got = pipeline.all_countries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_bitwise_metrics(got[i], want[i]);
  }

  // The checkpoint leaves the sanitizer's memo out: apply_delta declines
  // after restore() until apply_updates() re-arms it, and the re-armed
  // world equals a cold load.
  EXPECT_FALSE(pipeline.apply_delta(day, {}).has_value());
  (void)pipeline.apply_updates(ribs);
  const std::optional<Pipeline::ApplyResult> delta = pipeline.apply_delta(day, {});
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->sanitize_fast_path);
  EXPECT_EQ(delta->days_resanitized, 0u);
  Pipeline cold{f.world.geo_db, f.world.vps, f.world.asn_registry,
                f.world.graph, f.config()};
  cold.load(ribs);
  got = pipeline.all_countries();
  want = cold.all_countries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_bitwise_metrics(got[i], want[i]);
  }
}

TEST(Pipeline, RestoreOfUnchangedWorldKeepsEveryShardAndMemo) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs);
  const std::size_t census = pipeline.all_countries().size();
  ASSERT_GT(census, 0u);

  Pipeline::ApplyResult r = pipeline.restore(pipeline.checkpoint());
  EXPECT_EQ(r.shards_rebuilt, 0u);
  EXPECT_EQ(r.shards_kept, pipeline.store().shards().size());
  EXPECT_EQ(r.country_memos_evicted, 0u);
  EXPECT_EQ(r.country_memos_kept, census);
}

TEST(Pipeline, CheckpointBeforeLoadAndEmptyRestoreThrow) {
  PipelineFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  EXPECT_THROW((void)pipeline.checkpoint(), std::logic_error);
  pipeline.load(f.ribs);
  EXPECT_THROW((void)pipeline.restore(Pipeline::Checkpoint{}), std::logic_error);
}

}  // namespace
}  // namespace georank::core
