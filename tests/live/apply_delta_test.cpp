// Differential proof for core::Pipeline::apply_delta, the O(burst) live
// flush: seeded random burst sequences go through live::UpdatePipeline,
// and after EVERY flush the pipeline's sanitized rows, stats, geo
// evidence and GRSNAP01 bytes must equal a cold load() of
// replay_to_collection over everything pushed so far. The bursts mix
// route swaps, fresh paths, new prefixes, withdrawals (including a
// prefix's last route, which must fall back), AS-set, loop and
// unallocated paths, copies of head-day routes on a multi-day window,
// day advances, and direct apply_updates()/load() calls between
// flushes; each sequence runs at GEORANK_THREADS=1 and 4.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bgp/update_stream.hpp"
#include "gen/internet.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "io/snapshot_codec.hpp"
#include "live/checkpoint.hpp"
#include "live/update_pipeline.hpp"
#include "serve/ranking_service.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace georank::live {
namespace {

using bgp::UpdateMessage;

constexpr std::uint64_t kBase = 1617235200;  // UpdatePipelineOptions' default

struct DeltaWorld {
  gen::World world;
  bgp::RibCollection ribs;
  core::PipelineConfig config;

  core::Pipeline make_pipeline() const {
    return core::Pipeline{world.geo_db, world.vps, world.asn_registry,
                          world.graph, config};
  }
};

DeltaWorld finish(gen::World world, bgp::RibCollection ribs) {
  DeltaWorld w{std::move(world), std::move(ribs), {}};
  w.config.sanitizer.clique = w.world.clique;
  w.config.sanitizer.route_server_asns = w.world.route_servers;
  return w;
}

/// Three RIB days: head days exist, so head-day keys win dedup and new
/// prefixes stay below the stability threshold.
DeltaWorld mini_world(std::uint64_t seed) {
  gen::World world = gen::InternetGenerator{gen::mini_world_spec(seed)}.generate();
  bgp::RibCollection ribs = gen::RibGenerator{world, gen::NoiseSpec{}, 5}.generate(3);
  return finish(std::move(world), std::move(ribs));
}

/// The internet preset at 0.25x: one RIB day, as in the live benchmark.
DeltaWorld quarter_internet(std::uint64_t seed) {
  const gen::InternetScaleGenerator generator{gen::internet_spec(0.25, seed)};
  gen::World world = generator.generate();
  bgp::RibCollection ribs = generator.synthesize_ribs(world);
  return finish(std::move(world), std::move(ribs));
}

serve::SnapshotMeta fixed_meta() { return serve::SnapshotMeta{7, 7, "delta"}; }

bool same_row(const sanitize::SanitizedPath& a, const sanitize::SanitizedPath& b) {
  return a.vp == b.vp && a.vp_country == b.vp_country && a.prefix == b.prefix &&
         a.prefix_country == b.prefix_country && a.weight == b.weight &&
         a.path == b.path;
}

/// The live side against a cold load of every update pushed so far.
void expect_matches_cold(const DeltaWorld& w, const core::Pipeline& live,
                         const std::vector<UpdateMessage>& pushed,
                         const std::string& where) {
  core::Pipeline cold = w.make_pipeline();
  cold.load(bgp::replay_to_collection(pushed, bgp::ReplayOptions{}));
  const sanitize::SanitizeResult& got = live.sanitized();
  const sanitize::SanitizeResult& want = cold.sanitized();
  ASSERT_EQ(got.paths.size(), want.paths.size()) << where;
  for (std::size_t i = 0; i < want.paths.size(); ++i) {
    ASSERT_TRUE(same_row(got.paths[i], want.paths[i])) << where << ": row " << i;
  }
  for (auto reason :
       {sanitize::FilterReason::kAccepted, sanitize::FilterReason::kUnstable,
        sanitize::FilterReason::kUnallocated, sanitize::FilterReason::kLoop,
        sanitize::FilterReason::kPoisoned, sanitize::FilterReason::kVpNoLocation,
        sanitize::FilterReason::kCoveredPrefix,
        sanitize::FilterReason::kPrefixNoLocation, sanitize::FilterReason::kAsSet}) {
    EXPECT_EQ(got.stats.count(reason), want.stats.count(reason))
        << where << ": " << sanitize::to_string(reason);
  }
  EXPECT_EQ(got.stats.total, want.stats.total) << where;
  EXPECT_EQ(got.stats.duplicates_merged, want.stats.duplicates_merged) << where;

  std::vector<geo::CountryCode> countries;
  for (const core::PathShard& shard : cold.store().shards()) {
    countries.push_back(shard.country());
  }
  for (const core::PathShard& shard : live.store().shards()) {
    countries.push_back(shard.country());
  }
  for (const auto& [country, tally] : want.prefix_geo.no_consensus_by_plurality()) {
    countries.push_back(country);
  }
  for (geo::CountryCode cc : countries) {
    const core::Pipeline::GeoEvidence a = live.geo_evidence(cc);
    const core::Pipeline::GeoEvidence b = cold.geo_evidence(cc);
    EXPECT_EQ(a.accepted, b.accepted) << where << ": " << cc.to_string();
    EXPECT_EQ(a.rejected, b.rejected) << where << ": " << cc.to_string();
    EXPECT_EQ(a.rejected_prefixes, b.rejected_prefixes) << where << ": " << cc.to_string();
  }

  const std::string got_bytes =
      io::encode_snapshot(serve::Snapshot::build(live, fixed_meta()));
  const std::string want_bytes =
      io::encode_snapshot(serve::Snapshot::build(cold, fixed_meta()));
  EXPECT_TRUE(got_bytes == want_bytes) << where << ": GRSNAP01 bytes differ";
}

/// Seeded bursts against the current live table.
class BurstGen {
 public:
  BurstGen(const DeltaWorld& w, std::uint64_t seed) : w_(&w), rng_(seed) {
    for (bgp::Asn asn : {64512u, 23456u, 65535u, 4200000000u, 4294967294u}) {
      if (!w.world.asn_registry.allocated(asn)) {
        unallocated_ = asn;
        break;
      }
    }
  }

  std::vector<UpdateMessage> next(const bgp::RibState& rib, std::uint64_t ts) {
    const std::vector<bgp::RouteEntry> table = rib.snapshot(0).entries;
    std::unordered_map<bgp::Prefix, std::vector<std::size_t>, bgp::PrefixHash> by_prefix;
    for (std::size_t i = 0; i < table.size(); ++i) {
      by_prefix[table[i].prefix].push_back(i);
    }
    const auto pick = [&]() -> const bgp::RouteEntry& {
      return table[rng_.below(static_cast<std::uint32_t>(table.size()))];
    };
    const auto announce = [&](const bgp::VpId& vp, const bgp::Prefix& prefix,
                              bgp::AsPath path) {
      burst_.push_back({UpdateMessage::Kind::kAnnounce, ts, vp, prefix, std::move(path)});
    };
    const auto withdraw = [&](const bgp::VpId& vp, const bgp::Prefix& prefix) {
      burst_.push_back({UpdateMessage::Kind::kWithdraw, ts, vp, prefix, {}});
    };

    burst_.clear();
    const std::uint32_t ops = 1 + rng_.below(24);
    for (std::uint32_t op = 0; op < ops; ++op) {
      const bgp::RouteEntry& e = pick();
      switch (rng_.below(11)) {
        case 0:
        case 1: {  // swap: another VP's path for the same prefix
          const std::vector<std::size_t>& peers = by_prefix[e.prefix];
          const bgp::RouteEntry& other =
              table[peers[rng_.below(static_cast<std::uint32_t>(peers.size()))]];
          announce(e.vp, e.prefix, other.path);
          break;
        }
        case 2: {  // fresh path: this VP's AS in front of another route's tail
          const bgp::RouteEntry& other = pick();
          std::vector<bgp::Asn> hops{e.vp.asn};
          const auto tail = other.path.hops();
          hops.insert(hops.end(), tail.begin() + (tail.empty() ? 0 : 1), tail.end());
          announce(e.vp, e.prefix, bgp::AsPath{std::move(hops)});
          break;
        }
        case 3: {  // prepending: a new raw path that cleans to the old one
          std::vector<bgp::Asn> hops(e.path.hops().begin(), e.path.hops().end());
          if (!hops.empty()) hops.push_back(hops.back());
          announce(e.vp, e.prefix, bgp::AsPath{std::move(hops)});
          break;
        }
        case 4: {  // new prefix: a /25 of a routed prefix, or unrouted space
          const bgp::Prefix fresh =
              rng_.chance(0.5) && e.prefix.length() < 25
                  ? bgp::Prefix{e.prefix.address(), 25}
                  : bgp::Prefix{0xC6120000u + (rng_.below(200) << 8), 24};
          announce(e.vp, fresh, e.path);
          break;
        }
        case 5:
          withdraw(e.vp, e.prefix);
          break;
        case 6: {  // a prefix's last route (falls back when it was stable)
          for (int tries = 0; tries < 32; ++tries) {
            const bgp::RouteEntry& lone = pick();
            if (by_prefix[lone.prefix].size() == 1) {
              withdraw(lone.vp, lone.prefix);
              break;
            }
          }
          break;
        }
        case 7: {  // AS-set and loop paths
          bgp::AsPath path = e.path;
          if (rng_.chance(0.5)) {
            path.mark_as_set();
          } else if (path.size() >= 2) {
            std::vector<bgp::Asn> hops(path.hops().begin(), path.hops().end());
            hops.push_back(hops.front());
            path = bgp::AsPath{std::move(hops)};
          }
          announce(e.vp, e.prefix, std::move(path));
          break;
        }
        case 8: {  // unallocated hop
          if (unallocated_ == 0) break;
          std::vector<bgp::Asn> hops(e.path.hops().begin(), e.path.hops().end());
          hops.insert(hops.begin() + static_cast<std::ptrdiff_t>(hops.size() / 2),
                      unallocated_);
          announce(e.vp, e.prefix, bgp::AsPath{std::move(hops)});
          break;
        }
        case 9: {  // a head-day route: its dedup key already exists
          if (w_->ribs.days.size() < 2) break;
          const auto& day = w_->ribs.days[rng_.below(
              static_cast<std::uint32_t>(w_->ribs.days.size() - 1))];
          if (day.entries.empty()) break;
          const bgp::RouteEntry& old =
              day.entries[rng_.below(static_cast<std::uint32_t>(day.entries.size()))];
          announce(old.vp, old.prefix, old.path);
          break;
        }
        default: {  // flap: gone and back within the burst
          withdraw(e.vp, e.prefix);
          announce(e.vp, e.prefix, e.path);
          break;
        }
      }
    }
    return burst_;
  }

 private:
  const DeltaWorld* w_;
  util::Pcg32 rng_;
  bgp::Asn unallocated_ = 0;
  std::vector<UpdateMessage> burst_;
};

struct FlushCounts {
  std::size_t delta = 0;
  std::size_t fallback = 0;
};

/// Drives one seeded sequence; returns which paths the flushes took.
FlushCounts run_sequence(const DeltaWorld& w, std::uint64_t seed, int bursts,
                         const std::string& label) {
  core::Pipeline pipeline = w.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = ~std::size_t{0};  // flush by hand
  UpdatePipeline live{pipeline, service, options};

  std::vector<UpdateMessage> pushed = bgp::collection_to_updates(w.ribs, kBase);
  for (const UpdateMessage& u : pushed) (void)live.push(u);
  EXPECT_FALSE(live.flush().apply.delta_path);  // the first flush loads

  BurstGen gen{w, seed};
  util::Pcg32 rng{seed ^ 0x5eedull};
  std::uint64_t ts = pushed.empty() ? kBase : pushed.back().timestamp;
  FlushCounts counts;
  for (int b = 0; b < bursts; ++b) {
    // Now and then the burst lands on the next day, closing this one.
    ts += rng.chance(0.15) ? 86400 : 1;
    for (const UpdateMessage& u : gen.next(live.rib(), ts)) {
      (void)live.push(u);
      pushed.push_back(u);
    }
    const FlushReport report = live.flush();
    if (report.apply.delta_path) {
      EXPECT_TRUE(report.apply.sanitize_fast_path);
      EXPECT_EQ(report.apply.days_resanitized, 0u);
      ++counts.delta;
    } else if (report.published) {
      ++counts.fallback;
    }
    expect_matches_cold(w, pipeline, pushed, label + " burst " + std::to_string(b));
    if (::testing::Test::HasFatalFailure()) return counts;

    // Other writers may re-arm the pipeline between flushes with the
    // same collection; the next delta must still apply on top.
    const std::uint32_t interleave = rng.below(10);
    if (interleave == 0) {
      pipeline.load(bgp::replay_to_collection(pushed, bgp::ReplayOptions{}));
    } else if (interleave == 1) {
      (void)pipeline.apply_updates(
          bgp::replay_to_collection(pushed, bgp::ReplayOptions{}));
    }
  }
  return counts;
}

class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* threads) { ::setenv("GEORANK_THREADS", threads, 1); }
  ~ThreadsEnv() { ::unsetenv("GEORANK_THREADS"); }
  ThreadsEnv(const ThreadsEnv&) = delete;
  ThreadsEnv& operator=(const ThreadsEnv&) = delete;
};

TEST(ApplyDelta, RandomBurstsMatchColdLoadOnMiniWorld) {
  const DeltaWorld w = mini_world(29);
  for (const char* threads : {"1", "4"}) {
    const ThreadsEnv env{threads};
    const FlushCounts counts =
        run_sequence(w, 101, 40, std::string{"mini @"} + threads + "t");
    EXPECT_GT(counts.delta, 0u);
    EXPECT_GT(counts.fallback, 0u);
  }
}

TEST(ApplyDelta, RandomBurstsMatchColdLoadOnQuarterInternet) {
  const DeltaWorld w = quarter_internet(1001);
  for (const char* threads : {"1", "4"}) {
    const ThreadsEnv env{threads};
    const FlushCounts counts =
        run_sequence(w, 202, 14, std::string{"0.25x @"} + threads + "t");
    EXPECT_GT(counts.delta, 0u);
    EXPECT_GT(counts.fallback, 0u);
  }
}

TEST(ApplyDelta, RecoveredPipelineFirstFlushIsFull) {
  const DeltaWorld w = mini_world(31);
  core::Pipeline pipeline = w.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = ~std::size_t{0};
  UpdatePipeline live{pipeline, service, options};
  std::vector<UpdateMessage> pushed = bgp::collection_to_updates(w.ribs, kBase);
  for (const UpdateMessage& u : pushed) (void)live.push(u);
  (void)live.flush();

  BurstGen gen{w, 7};
  std::uint64_t ts = pushed.back().timestamp;
  const auto burst = [&](UpdatePipeline& into) {
    for (const UpdateMessage& u : gen.next(into.rib(), ++ts)) {
      (void)into.push(u);
      pushed.push_back(u);
    }
    return into.flush();
  };
  EXPECT_TRUE(burst(live).apply.delta_path);

  // Recover mid-stream onto a fresh core pipeline: the checkpoint holds
  // no world for it, so the first flush must load the whole window.
  const Checkpoint checkpoint = live.make_checkpoint();
  core::Pipeline recovered_pipeline = w.make_pipeline();
  serve::RankingService recovered_service;
  UpdatePipeline recovered{recovered_pipeline, recovered_service, options};
  recovered.restore(checkpoint);
  const FlushReport first = burst(recovered);
  EXPECT_TRUE(first.published);
  EXPECT_FALSE(first.apply.delta_path);
  EXPECT_FALSE(first.apply.sanitize_fast_path);
  expect_matches_cold(w, recovered_pipeline, pushed, "first flush after recovery");
  EXPECT_TRUE(burst(recovered).apply.delta_path);
  expect_matches_cold(w, recovered_pipeline, pushed, "delta after recovery");
}

TEST(ApplyDelta, DeclinesWithoutTouchingTheWorld) {
  const DeltaWorld w = mini_world(37);
  core::Pipeline pipeline = w.make_pipeline();
  EXPECT_FALSE(pipeline.apply_delta(0, {}).has_value());  // nothing loaded

  // A replayed archive is keyed by route, like the live table.
  const bgp::RibCollection ribs = bgp::replay_to_collection(
      bgp::collection_to_updates(w.ribs, kBase), bgp::ReplayOptions{});
  pipeline.load(ribs);
  const int day = ribs.days.back().day;
  const std::string before =
      io::encode_snapshot(serve::Snapshot::build(pipeline, fixed_meta()));
  const sanitize::SanitizedPath row = pipeline.sanitized().paths.back();
  ASSERT_GE(pipeline.sanitized().paths.size(), 2u);

  // The key held a path that emitted this row; claiming it held an
  // AS-set path (which emits none) must fail the cross-check.
  bgp::AsPath as_set = row.path;
  as_set.mark_as_set();
  const bgp::RouteDelta wrong_old{row.vp, row.prefix, as_set, std::nullopt};
  EXPECT_FALSE(pipeline.apply_delta(day, std::span{&wrong_old, 1}).has_value());
  // Withdrawing a route the final day does not have.
  const bgp::RouteDelta unknown{row.vp, bgp::Prefix{0xC6120000u, 24}, row.path,
                                std::nullopt};
  EXPECT_FALSE(pipeline.apply_delta(day, std::span{&unknown, 1}).has_value());
  // The same key twice in one call.
  const bgp::RouteDelta twice[] = {{row.vp, row.prefix, row.path, std::nullopt},
                                   {row.vp, row.prefix, row.path, std::nullopt}};
  EXPECT_FALSE(pipeline.apply_delta(day, twice).has_value());
  // A day that is not the loaded collection's final day.
  EXPECT_FALSE(pipeline.apply_delta(day + 1, {}).has_value());
  EXPECT_TRUE(io::encode_snapshot(serve::Snapshot::build(pipeline, fixed_meta())) ==
              before);

  // An empty delta is a no-op that keeps every shard.
  const std::optional<core::Pipeline::ApplyResult> none = pipeline.apply_delta(day, {});
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->delta_path);
  EXPECT_EQ(none->shards_rebuilt, 0u);
  EXPECT_TRUE(io::encode_snapshot(serve::Snapshot::build(pipeline, fixed_meta())) ==
              before);

  // A checkpoint leaves the delta counters out: after restore() the
  // delta path declines until apply_updates() re-arms it.
  const core::Pipeline::Checkpoint checkpoint = pipeline.checkpoint();
  (void)pipeline.restore(checkpoint);
  EXPECT_FALSE(pipeline.apply_delta(day, {}).has_value());
  (void)pipeline.apply_updates(ribs);
  EXPECT_TRUE(pipeline.apply_delta(day, {}).has_value());
  EXPECT_TRUE(io::encode_snapshot(serve::Snapshot::build(pipeline, fixed_meta())) ==
              before);
}

TEST(ApplyDelta, QueriesRaceApplyDelta) {
  const DeltaWorld w = mini_world(41);
  core::Pipeline pipeline = w.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = ~std::size_t{0};
  UpdatePipeline live{pipeline, service, options};
  std::vector<UpdateMessage> pushed = bgp::collection_to_updates(w.ribs, kBase);
  for (const UpdateMessage& u : pushed) (void)live.push(u);
  (void)live.flush();
  const std::vector<geo::CountryCode> countries = pipeline.store().countries();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        for (geo::CountryCode cc : countries) {
          if (t == 0) {
            (void)pipeline.country(cc);
          } else if (t == 1) {
            (void)pipeline.country_health(cc);
            (void)pipeline.geo_evidence(cc);
          } else {
            (void)pipeline.all_countries();
          }
          queries.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  BurstGen gen{w, 43};
  std::uint64_t ts = pushed.back().timestamp;
  std::size_t deltas = 0;
  for (int b = 0; b < 20; ++b) {
    for (const UpdateMessage& u : gen.next(live.rib(), ++ts)) {
      (void)live.push(u);
      pushed.push_back(u);
    }
    if (live.flush().apply.delta_path) ++deltas;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_GT(deltas, 0u);
  EXPECT_GT(queries.load(), 0u);
  expect_matches_cold(w, pipeline, pushed, "after the race");
}

}  // namespace
}  // namespace georank::live
