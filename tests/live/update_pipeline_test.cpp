#include "live/update_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/update_stream.hpp"
#include "core/pipeline.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "io/snapshot_codec.hpp"
#include "serve/ranking_service.hpp"
#include "serve/snapshot.hpp"

namespace georank::live {
namespace {

using bgp::UpdateMessage;
using geo::CountryCode;

constexpr std::uint64_t kBase = 1617235200;

struct LiveFixture {
  gen::World world;
  bgp::RibCollection ribs;
  std::vector<UpdateMessage> archive;

  explicit LiveFixture(std::uint64_t seed = 17, int days = 3)
      : world(gen::InternetGenerator{gen::mini_world_spec(seed)}.generate()) {
    gen::NoiseSpec noise;
    ribs = gen::RibGenerator{world, noise, 5}.generate(days);
    archive = bgp::collection_to_updates(ribs);
  }

  core::PipelineConfig config() const {
    core::PipelineConfig cfg;
    cfg.sanitizer.clique = world.clique;
    cfg.sanitizer.route_server_asns = world.route_servers;
    return cfg;
  }

  core::Pipeline make_pipeline() const {
    return core::Pipeline{world.geo_db, world.vps, world.asn_registry,
                          world.graph, config()};
  }
};

/// The correctness bar from DESIGN.md §4f: after any replayed archive the
/// incremental snapshot must be BYTE-identical (through the GRSNAP01
/// codec) to a from-scratch batch recompute of the same final RIB state.
void expect_bit_identical_to_batch(const LiveFixture& f,
                                   const std::vector<UpdateMessage>& archive,
                                   std::size_t flush_batch) {
  // Batch side: replay the archive into a collection, one fresh load.
  core::Pipeline batch = f.make_pipeline();
  batch.load(bgp::replay_to_collection(archive, bgp::ReplayOptions{}));
  serve::SnapshotMeta meta;
  meta.id = 42;
  meta.created_unix = 1234567890;
  meta.label = "bit-identity";
  const std::string want =
      io::encode_snapshot(serve::Snapshot::build(batch, meta));

  // Live side: stream the same archive through incremental flushes.
  core::Pipeline incremental = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = flush_batch;
  UpdatePipeline live{incremental, service, options};
  for (const UpdateMessage& u : archive) (void)live.push(u);
  FlushReport last = live.drain();
  EXPECT_GT(live.stats().publishes, 0u);
  EXPECT_TRUE(last.published || last.batch == 0);

  const std::string got =
      io::encode_snapshot(serve::Snapshot::build(incremental, meta));
  // EXPECT_EQ on mismatch would dump megabytes of binary; compare first.
  EXPECT_TRUE(got == want) << "live snapshot diverged from batch recompute"
                           << " (flush_batch " << flush_batch << ")";
}

TEST(UpdatePipeline, BitIdenticalToBatchAcrossFlushCadences) {
  LiveFixture f;
  ASSERT_GT(f.archive.size(), 1000u);
  // Odd cadences land flush boundaries mid-day and mid-burst; the huge
  // one exercises the single-flush (pure drain) path.
  for (std::size_t flush_batch : {257u, 4096u, 1u << 20}) {
    expect_bit_identical_to_batch(f, f.archive, flush_batch);
  }
}

TEST(UpdatePipeline, BitIdenticalWithQuietDaySpliced) {
  LiveFixture f{23, 2};
  // Splice a no-change day between the two generated days (the same
  // construction the bgp-level round-trip test uses).
  bgp::RibCollection with_quiet;
  with_quiet.days.push_back(f.ribs.days[0]);
  bgp::RibSnapshot quiet = f.ribs.days[0];
  quiet.day = 1;
  with_quiet.days.push_back(quiet);
  bgp::RibSnapshot last = f.ribs.days[1];
  last.day = 2;
  with_quiet.days.push_back(last);

  std::vector<UpdateMessage> archive = bgp::collection_to_updates(with_quiet);
  expect_bit_identical_to_batch(f, archive, 513);
}

TEST(UpdatePipeline, ReorderWindowRecoversLateUpdates) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = 1 << 20;
  options.reorder_window = 3600;
  UpdatePipeline live{pipeline, service, options};

  // Swap adjacent same-day pairs: without the window these rewinds are
  // out-of-order drops; within it they re-sort losslessly.
  std::vector<UpdateMessage> shuffled = f.archive;
  std::size_t swapped = 0;
  for (std::size_t i = 0; i + 1 < shuffled.size(); i += 2) {
    if (shuffled[i].timestamp != shuffled[i + 1].timestamp) {
      std::swap(shuffled[i], shuffled[i + 1]);
      ++swapped;
    }
  }
  ASSERT_GT(swapped, 0u);
  for (const UpdateMessage& u : shuffled) (void)live.push(u);
  (void)live.drain();
  EXPECT_EQ(live.stats().out_of_order, 0u);
  EXPECT_EQ(live.stats().applied, shuffled.size());

  // The re-sorted stream reproduces the in-order replay's final state.
  bgp::RibCollection want = bgp::replay_to_collection(f.archive);
  bgp::RibSnapshot got = live.rib().snapshot(want.days.back().day);
  EXPECT_EQ(got.entries, want.days.back().entries);
}

TEST(UpdatePipeline, WithoutWindowLateUpdatesAreCountedDrops) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipeline live{pipeline, service, UpdatePipelineOptions{}};

  (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 100,
                   bgp::VpId{1, 701}, *bgp::Prefix::parse("10.0.0.0/16"),
                   bgp::AsPath{701, 1299}});
  (void)live.push({UpdateMessage::Kind::kWithdraw, kBase + 50,
                   bgp::VpId{1, 701}, *bgp::Prefix::parse("10.0.0.0/16"),
                   bgp::AsPath{}});
  EXPECT_EQ(live.stats().out_of_order, 1u);
  EXPECT_EQ(live.stats().applied, 1u);
  EXPECT_EQ(live.rib().route_count(), 1u);  // the withdraw never landed
}

TEST(UpdatePipeline, StrictModeThrowsTypedErrorOnLateUpdate) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.mode = bgp::ParseMode::kStrict;
  UpdatePipeline live{pipeline, service, options};

  (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 100,
                   bgp::VpId{1, 701}, *bgp::Prefix::parse("10.0.0.0/16"),
                   bgp::AsPath{701, 1299}});
  try {
    (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 10,
                     bgp::VpId{1, 701}, *bgp::Prefix::parse("10.1.0.0/16"),
                     bgp::AsPath{701, 174}});
    FAIL() << "strict live pipeline accepted a late update";
  } catch (const bgp::UpdateReplayError& e) {
    EXPECT_EQ(e.kind(), bgp::UpdateReplayError::Kind::kOutOfOrder);
    EXPECT_EQ(e.timestamp(), kBase + 10);
  }
  // Pre-base_time in strict mode is the other typed kind.
  try {
    (void)live.push({UpdateMessage::Kind::kAnnounce, kBase - 1,
                     bgp::VpId{1, 701}, *bgp::Prefix::parse("10.2.0.0/16"),
                     bgp::AsPath{701, 174}});
    FAIL() << "strict live pipeline accepted a pre-base_time update";
  } catch (const bgp::UpdateReplayError& e) {
    EXPECT_EQ(e.kind(), bgp::UpdateReplayError::Kind::kDayOutOfRange);
  }
}

TEST(UpdatePipeline, QuietDaysAreClosedAndCounted) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipeline live{pipeline, service, UpdatePipelineOptions{}};
  (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 10,
                   bgp::VpId{1, 701}, *bgp::Prefix::parse("10.0.0.0/16"),
                   bgp::AsPath{701, 1299}});
  (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 3 * 86400 + 10,
                   bgp::VpId{1, 701}, *bgp::Prefix::parse("10.1.0.0/16"),
                   bgp::AsPath{701, 174}});
  EXPECT_EQ(live.stats().days_closed, 3u);
  EXPECT_EQ(live.stats().quiet_days, 2u);
}

TEST(UpdatePipeline, NoChangeFlushKeepsShardsAndMemos) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = 1 << 20;  // flush only when we say so
  UpdatePipeline live{pipeline, service, options};

  std::uint64_t max_ts = 0;
  for (const UpdateMessage& u : f.archive) {
    max_ts = std::max(max_ts, u.timestamp);
    (void)live.push(u);
  }
  FlushReport first = live.drain();
  ASSERT_TRUE(first.published);
  EXPECT_EQ(first.apply.shards_rebuilt, pipeline.store().shards().size());

  // Re-announce the live day's exact routes at the same (final)
  // timestamp: the RIB, and therefore every shard digest, is unchanged.
  const int final_day = static_cast<int>((max_ts - kBase) / 86400);
  const bgp::RibSnapshot final_state = live.rib().snapshot(final_day);
  for (const bgp::RouteEntry& e : final_state.entries) {
    (void)live.push(
        {UpdateMessage::Kind::kAnnounce, max_ts, e.vp, e.prefix, e.path});
  }
  FlushReport second = live.drain();
  ASSERT_TRUE(second.published);
  EXPECT_EQ(second.apply.shards_rebuilt, 0u);
  EXPECT_EQ(second.apply.shards_kept, pipeline.store().shards().size());
  EXPECT_EQ(second.apply.memos_evicted, 0u);
  // Snapshot::build warmed every country's memo on the first flush.
  EXPECT_GT(second.apply.memos_kept, 0u);
  // Publishing still happened: the service moved to a fresh snapshot id.
  EXPECT_EQ(service.current()->meta.id, second.snapshot_id);
  EXPECT_GT(second.snapshot_id, first.snapshot_id);
}

TEST(UpdatePipeline, ApplyUpdatesAfterLiveReplayKeepsShardsAndMemos) {
  // A world reached through live flushes (delta patches included) must
  // be the world a batch load would build: re-applying the replayed
  // collection through Pipeline::apply_updates finds every shard digest
  // and every warm memo unchanged.
  LiveFixture f{29};
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = 313;
  UpdatePipeline live{pipeline, service, options};
  std::size_t delta_flushes = 0;
  for (const UpdateMessage& u : f.archive) {
    if (std::optional<FlushReport> r = live.push(u); r && r->apply.sanitize_fast_path) {
      ++delta_flushes;
    }
  }
  if (live.drain().apply.sanitize_fast_path) ++delta_flushes;
  ASSERT_GT(delta_flushes, 0u);

  core::Pipeline::ApplyResult again = pipeline.apply_updates(
      bgp::replay_to_collection(f.archive, bgp::ReplayOptions{}));
  EXPECT_EQ(again.shards_rebuilt, 0u);
  EXPECT_EQ(again.shards_kept, pipeline.store().shards().size());
  EXPECT_EQ(again.memos_evicted, 0u);
  EXPECT_GT(again.memos_kept, 0u);
}

TEST(UpdatePipeline, IngestCountersReachTheService) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = 500;
  UpdatePipeline live{pipeline, service, options};

  bgp::MrtParseStats parse_stats;
  parse_stats.lines = 9000;
  parse_stats.parsed = 8990;
  parse_stats.record_malformed(bgp::ParseReason::kBadFieldCount, 1, "x");
  live.set_parse_stats(parse_stats);

  for (const UpdateMessage& u : f.archive) (void)live.push(u);
  (void)live.drain();

  const LiveStats& stats = live.stats();
  serve::IngestCounters got = service.ingest();
  EXPECT_EQ(got.updates_applied, stats.applied);
  EXPECT_EQ(got.announces, stats.announces);
  EXPECT_EQ(got.withdraws, stats.withdraws);
  EXPECT_EQ(got.spurious_withdrawals, live.rib().spurious_withdrawals());
  EXPECT_EQ(got.parse_lines, 9000u);
  EXPECT_EQ(got.parse_malformed, 1u);
  EXPECT_EQ(got.republishes, stats.publishes);
  EXPECT_GT(got.republish_seconds_sum, 0.0);
  EXPECT_GT(got.last_batch, 0u);

  // And the metrics endpoint renders them.
  std::string metrics = service.metrics_text();
  EXPECT_NE(metrics.find("georank_ingest_updates_applied_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("georank_live_republishes_total"), std::string::npos);
}

TEST(UpdatePipeline, BoundedBufferDrainsOldestEarly) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = 1 << 20;
  options.reorder_window = ~std::uint64_t{0} / 2;  // never drain by watermark
  options.max_pending = 16;
  UpdatePipeline live{pipeline, service, options};

  for (std::size_t i = 0; i < 64; ++i) {
    (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 10 + i,
                     bgp::VpId{1, 701},
                     *bgp::Prefix::parse("10.0.0.0/16"),
                     bgp::AsPath{701, 1299}});
  }
  // The buffer never exceeds its bound; overflow went to the live table.
  EXPECT_LE(live.buffered(), 16u);
  EXPECT_EQ(live.stats().applied + live.buffered(), 64u);
  (void)live.drain();
  EXPECT_EQ(live.stats().applied, 64u);
  EXPECT_EQ(live.stats().out_of_order, 0u);
  // kDrainOldest is the default policy, and it sheds nothing.
  EXPECT_EQ(UpdatePipelineOptions{}.overflow, OverflowPolicy::kDrainOldest);
  EXPECT_EQ(live.stats().shed, 0u);
}

TEST(UpdatePipeline, ShedNewestCountsTolerantDrops) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = 1 << 20;
  options.reorder_window = ~std::uint64_t{0} / 2;  // never drain by watermark
  options.max_pending = 16;
  options.overflow = OverflowPolicy::kShedNewest;
  UpdatePipeline live{pipeline, service, options};

  for (std::size_t i = 0; i < 64; ++i) {
    const std::optional<FlushReport> report =
        live.push({UpdateMessage::Kind::kAnnounce, kBase + 10 + i,
                   bgp::VpId{1, 701}, *bgp::Prefix::parse("10.0.0.0/16"),
                   bgp::AsPath{701, 1299}});
    EXPECT_FALSE(report.has_value());
  }
  // The first 16 filled the buffer; the remaining 48 were shed — and
  // every push still consumed a sequence number (recovery depends on
  // seq == stream index, shed pushes included).
  EXPECT_EQ(live.buffered(), 16u);
  EXPECT_EQ(live.stats().shed, 48u);
  EXPECT_EQ(live.stats().pushed, 64u);
  EXPECT_EQ(live.next_seq(), 64u);
  (void)live.drain();
  EXPECT_EQ(live.stats().applied, 16u);

  // The shed counter reaches /metrics through the ingest report.
  const std::string metrics = service.metrics_text();
  EXPECT_NE(metrics.find("georank_live_shed_total 48"), std::string::npos);
}

TEST(UpdatePipeline, ShedNewestInStrictModeThrowsTyped) {
  LiveFixture f;
  core::Pipeline pipeline = f.make_pipeline();
  serve::RankingService service;
  UpdatePipelineOptions options;
  options.flush_batch = 1 << 20;
  options.reorder_window = ~std::uint64_t{0} / 2;
  options.max_pending = 4;
  options.overflow = OverflowPolicy::kShedNewest;
  options.mode = bgp::ParseMode::kStrict;
  UpdatePipeline live{pipeline, service, options};

  for (std::size_t i = 0; i < 4; ++i) {
    (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 10 + i,
                     bgp::VpId{1, 701}, *bgp::Prefix::parse("10.0.0.0/16"),
                     bgp::AsPath{701, 1299}});
  }
  try {
    (void)live.push({UpdateMessage::Kind::kAnnounce, kBase + 99,
                     bgp::VpId{1, 701}, *bgp::Prefix::parse("10.1.0.0/16"),
                     bgp::AsPath{701, 174}});
    FAIL() << "strict overflow must throw, not silently shed";
  } catch (const bgp::UpdateReplayError& e) {
    EXPECT_EQ(e.kind(), bgp::UpdateReplayError::Kind::kBufferOverflow);
    EXPECT_EQ(e.index(), 4u);
    EXPECT_EQ(e.timestamp(), kBase + 99);
  }
}

}  // namespace
}  // namespace georank::live
