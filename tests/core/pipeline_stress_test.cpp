// Race-provoking stress for the Pipeline's reload path, written for the
// build-tsan CI tier. The locking contract under test (pipeline.hpp):
// load(), apply_updates() and restore() hold the reload lock
// exclusively while swapping the world pointer;
// every value-returning query holds it shared for its whole body; the
// memo cache behind `mutex` may be hit from any number of query threads.
//
// These tests are about what ThreadSanitizer observes, not just about
// return values: a benign-looking unsynchronized read (loaded() before
// it took the shared lock, parse_stats_ written outside the reload
// lock) fails the TSan tier even when every assertion below passes.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"

namespace georank::core {
namespace {

using geo::CountryCode;

struct StressFixture {
  gen::World world;
  bgp::RibCollection ribs_a;
  bgp::RibCollection ribs_b;

  StressFixture()
      : world(gen::InternetGenerator{gen::mini_world_spec(13)}.generate()) {
    gen::NoiseSpec noise;
    ribs_a = gen::RibGenerator{world, noise, 5}.generate(4);
    ribs_b = gen::RibGenerator{world, noise, 11}.generate(4);
  }

  PipelineConfig config() const {
    PipelineConfig cfg;
    cfg.sanitizer.clique = world.clique;
    cfg.sanitizer.route_server_asns = world.route_servers;
    return cfg;
  }
};

TEST(PipelineStress, QueriesRaceReloadWithoutTearing) {
  StressFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs_b);
  const std::vector<CountryMetrics> world_b = pipeline.all_countries();
  pipeline.load(f.ribs_a);
  const std::vector<CountryMetrics> world_a = pipeline.all_countries();
  const Pipeline::Checkpoint checkpoint_a = pipeline.checkpoint();
  ASSERT_FALSE(world_a.empty());
  ASSERT_FALSE(world_b.empty());
  const CountryCode target = world_a.front().country;

  // One writer flips between the two worlds, by load() and by the
  // what-if cycle (a counterfactual apply_updates, then restore() of the
  // shared world a); readers hammer the query surface. Every observed
  // result must match ONE world exactly — a mixed result means a query
  // saw a half-swapped state.
  std::atomic<bool> stop{false};
  std::atomic<int> mixed{0};
  std::thread writer([&] {
    for (int round = 0; round < 6; ++round) {
      pipeline.load(round % 2 == 0 ? f.ribs_b : f.ribs_a);
      (void)pipeline.apply_updates(f.ribs_b);
      (void)pipeline.restore(checkpoint_a);
    }
    stop.store(true, std::memory_order_release);
  });

  auto matches = [&](const CountryMetrics& got, const std::vector<CountryMetrics>& w) {
    for (const CountryMetrics& m : w) {
      if (m.country == got.country) {
        return m.national_vps == got.national_vps &&
               m.international_vps == got.international_vps &&
               m.cci.size() == got.cci.size() &&
               m.ahi.size() == got.ahi.size();
      }
    }
    return false;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ASSERT_TRUE(pipeline.loaded());
        const CountryMetrics got = pipeline.country(target);
        if (!matches(got, world_a) && !matches(got, world_b)) {
          mixed.fetch_add(1, std::memory_order_relaxed);
        }
        (void)pipeline.geo_evidence(target);
        (void)pipeline.outbound(target);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mixed.load(), 0) << "a query returned a mix of two worlds";
}

TEST(PipelineStress, StreamReloadPublishesParseStatsSafely) {
  // load_text() must commit parse_stats_ under the same exclusive hold
  // as the world swap; readers query the pipeline while text reloads
  // run. (Reading the parse_stats() REFERENCE concurrently is excluded
  // by its documented contract; loaded()/country() are not.)
  StressFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  const std::string text_a = bgp::to_mrt_text(f.ribs_a);
  const std::string text_b = bgp::to_mrt_text(f.ribs_b);
  pipeline.load_text(text_a);
  const CountryCode target = pipeline.all_countries().front().country;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int round = 0; round < 4; ++round) {
      pipeline.load_text(round % 2 == 0 ? text_b : text_a);
      EXPECT_EQ(pipeline.parse_stats().malformed, 0u);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EXPECT_TRUE(pipeline.loaded());
        (void)pipeline.country(target);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

TEST(PipelineStress, ConcurrentCensusesAreBitIdentical) {
  // Multiple all_countries() calls racing each other (and the memo
  // cache) must each return the same census a quiet call returns.
  StressFixture f;
  Pipeline pipeline{f.world.geo_db, f.world.vps, f.world.asn_registry,
                    f.world.graph, f.config()};
  pipeline.load(f.ribs_a);
  const std::vector<CountryMetrics> expected = pipeline.all_countries();
  pipeline.clear_caches();

  constexpr int kCallers = 4;
  std::vector<std::vector<CountryMetrics>> got(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] { got[c] = pipeline.all_countries(); });
  }
  for (std::thread& t : callers) t.join();

  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[c][i].country, expected[i].country);
      ASSERT_EQ(got[c][i].national_vps, expected[i].national_vps);
      ASSERT_EQ(got[c][i].cci.size(),
                expected[i].cci.size());
      for (std::size_t k = 0; k < expected[i].cci.size(); ++k) {
        ASSERT_EQ(got[c][i].cci.entries()[k].asn,
                  expected[i].cci.entries()[k].asn);
        ASSERT_EQ(got[c][i].cci.entries()[k].score,
                  expected[i].cci.entries()[k].score);
      }
    }
  }
}

}  // namespace
}  // namespace georank::core
