// live: writes beside reads. Set-up bootstraps live::UpdatePipeline on
// the internet world by pushing its update dump and flushing once.
// An open loop then sends a single-country burst on a fixed schedule —
// path swaps between two VPs that carry the same prefix plus
// withdrawals, all in one Zipf-drawn country — each followed by
// flush(); a write runs from the burst's due time until the publish
// returns. One closed-loop reader connection queries the server
// meanwhile. The incremental sanitizer, shard reuse, memo eviction,
// Snapshot::build on warm memos and the RCU publish do the work; parse
// and the cold census are bypassed.
#include <algorithm>
#include <limits>
#include <map>
#include <thread>

#include "bgp/update_stream.hpp"
#include "live/update_pipeline.hpp"
#include "reads.hpp"
#include "serve/http_server.hpp"
#include "workloads.hpp"
#include "worlds.hpp"

namespace perfbench {

using namespace georank;

namespace {

constexpr std::size_t kSwapsPerBurst = 48;
constexpr std::size_t kWithdrawalsPerBurst = 16;
constexpr std::uint64_t kBaseTime = 1617235200;  // UpdatePipelineOptions' default

/// A route whose path a burst can flip between two VPs' paths.
struct Swap {
  bgp::VpId vp;
  bgp::Prefix prefix;
  bgp::AsPath paths[2];
  int at = 0;
};

struct CountryPool {
  std::vector<Swap> swaps;
  std::vector<bgp::RouteEntry> withdrawable;
  std::size_t withdrawn = 0;
};

/// Per country, from the accepted rows: alternating prefixes give
/// either a swap (two VPs with different paths) or, when three or more
/// VPs carry the prefix, one withdrawable route that leaves the prefix
/// seen. Ordered biggest country first (Zipf rank 0).
std::vector<CountryPool> burst_pools(const core::Pipeline& pipeline) {
  std::map<bgp::Prefix, std::vector<const sanitize::SanitizedPath*>> by_prefix;
  for (const sanitize::SanitizedPath& row : pipeline.sanitized().paths) {
    by_prefix[row.prefix].push_back(&row);
  }
  std::map<std::uint16_t, CountryPool> by_country;
  std::size_t n = 0;
  for (const auto& [prefix, rows] : by_prefix) {
    CountryPool& pool = by_country[rows.front()->prefix_country.raw()];
    if (n++ % 2 == 1) {
      if (rows.size() >= 3) pool.withdrawable.push_back({rows.front()->vp, prefix, {}});
      continue;
    }
    for (const sanitize::SanitizedPath* a : rows) {
      const auto b = std::find_if(rows.begin(), rows.end(), [&](const auto* r) {
        return r->vp != a->vp && r->path != a->path;
      });
      if (b != rows.end()) {
        pool.swaps.push_back({a->vp, prefix, {a->path, (*b)->path}, 0});
        break;
      }
    }
  }
  std::vector<CountryPool> pools;
  for (auto& [cc, pool] : by_country) {
    if (pool.swaps.size() >= kSwapsPerBurst) pools.push_back(std::move(pool));
  }
  std::stable_sort(pools.begin(), pools.end(), [](const auto& a, const auto& b) {
    return a.swaps.size() > b.swaps.size();
  });
  return pools;
}

/// The next burst: a Zipf-drawn country (through an even sequence, so
/// every run's country mix follows the distribution closely), a seeded
/// run of its swaps, and its next unused withdrawals.
std::vector<bgp::UpdateMessage> next_burst(std::vector<CountryPool>& pools, const Zipf& zipf,
                                           EvenUniform& country_u, Rng& rng,
                                           std::uint64_t timestamp) {
  CountryPool& pool = pools[zipf.at(country_u.next())];
  std::vector<bgp::UpdateMessage> burst;
  const std::size_t start = rng.below(pool.swaps.size());
  for (std::size_t i = 0; i < kSwapsPerBurst; ++i) {
    Swap& swap = pool.swaps[(start + i) % pool.swaps.size()];
    swap.at ^= 1;
    burst.push_back({bgp::UpdateMessage::Kind::kAnnounce, timestamp, swap.vp, swap.prefix,
                     swap.paths[swap.at]});
  }
  for (std::size_t i = 0; i < kWithdrawalsPerBurst && pool.withdrawn < pool.withdrawable.size();
       ++i) {
    const bgp::RouteEntry& route = pool.withdrawable[pool.withdrawn++];
    burst.push_back({bgp::UpdateMessage::Kind::kWithdraw, timestamp, route.vp, route.prefix, {}});
  }
  return burst;
}

struct LiveNode {
  std::unique_ptr<InternetWorld> w;
  std::unique_ptr<core::Pipeline> pipeline;
  serve::RankingService service;
  std::unique_ptr<live::UpdatePipeline> live;
  std::unique_ptr<serve::HttpServer> server;
  std::vector<bgp::UpdateMessage> pushed;  // everything applied, for the gate

  ~LiveNode() {
    if (server) server->stop();
  }
};

std::unique_ptr<LiveNode> boot(double scale, std::uint64_t seed) {
  auto node = std::make_unique<LiveNode>();
  node->w = make_world(scale, seed);
  node->pipeline = node->w->make_pipeline();
  live::UpdatePipelineOptions options;
  options.flush_batch = std::numeric_limits<std::size_t>::max();  // flush by hand
  options.base_time = kBaseTime;
  node->live = std::make_unique<live::UpdatePipeline>(*node->pipeline, node->service, options);
  node->pushed = bgp::collection_to_updates(node->w->ribs, kBaseTime);
  for (const bgp::UpdateMessage& u : node->pushed) (void)node->live->push(u);
  (void)node->live->flush();
  serve::HttpServerOptions server_options;
  server_options.threads = 1;
  node->server = std::make_unique<serve::HttpServer>(node->service, server_options);
  node->server->start();
  return node;
}

}  // namespace

void run_live(const Args& args, Tracer& tracer, Result& result) {
  const double scale = kPipelineScale;
  // About twice a burst's latency, so the writer is busy about half the
  // time and a slow flush delays the next burst rather than piling up.
  const auto interval = std::chrono::milliseconds(50);

  auto setup = [&] { return boot(scale, args.seed); };
  std::vector<double> setup_s;
  std::unique_ptr<LiveNode> node = timed_setups(kSetupRepsBefore, setup_s, setup);

  std::vector<CountryPool> pools = burst_pools(*node->pipeline);
  if (pools.empty()) {
    result.gate(false, "the world has a country with enough swappable routes");
    return;
  }
  const Zipf zipf{pools.size(), 0.9};
  Rng rng{args.seed ^ 0x6c697665ull};
  EvenUniform country_u{rng};
  // Bursts carry increasing timestamps within the dump's (live) day.
  std::uint64_t timestamp = 0;
  for (const bgp::UpdateMessage& u : node->pushed) timestamp = std::max(timestamp, u.timestamp);

  const std::vector<std::string> keys = read_keys(*node->service.current(), args.seed);
  result.info("scale", scale);
  result.info("ases", static_cast<double>(node->w->ases));
  result.info("rib_entries", static_cast<double>(node->w->ribs.total_entries()));
  result.info("accepted_paths", static_cast<double>(node->pipeline->store().size()));
  result.info("countries", static_cast<double>(node->service.current()->countries.size()));
  result.info("burst_countries", static_cast<double>(pools.size()));
  result.info("burst_updates", static_cast<double>(kSwapsPerBurst + kWithdrawalsPerBurst));
  result.info("burst_interval_ms", static_cast<double>(interval.count()));
  result.info("read_keys", static_cast<double>(keys.size()));
  result.info("lru_capacity", static_cast<double>(node->service.options().cache_capacity));

  auto send = [&](const std::vector<bgp::UpdateMessage>& burst, std::uint64_t op) {
    auto whole = tracer.span("live.burst", op);
    for (const bgp::UpdateMessage& u : burst) {
      auto s = tracer.span("live.push", op);
      (void)node->live->push(u);
    }
    node->pushed.insert(node->pushed.end(), burst.begin(), burst.end());
    auto s = tracer.span("live.flush", op);
    return node->live->flush();
  };
  (void)send(next_burst(pools, zipf, country_u, rng, ++timestamp), 0);  // warm-up

  Latencies ops;
  std::vector<live::FlushReport> reports;  // traced half
  std::vector<double> late_ms;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> flushes;
  std::size_t unpublished = 0;
  const Window window{args};
  ReadStats reads;
  // The reader records no spans: ReadSample already times every read,
  // and its spans would fill the tracer and contend with the writer's.
  std::jthread reader{[&] {
    reads = run_reads(node->server->port(), keys, nullptr, 0.9, args.seed, 1, 1000, window,
                      nullptr);
  }};
  for (std::uint64_t op = 1;; ++op) {
    const Clock::time_point due = window.start + interval * static_cast<int>(op - 1);
    if (due >= window.end) break;
    const std::vector<bgp::UpdateMessage> burst = next_burst(pools, zipf, country_u, rng, ++timestamp);
    std::this_thread::sleep_until(due);
    const bool traced = window.traced_now();
    tracer.set_enabled(traced);
    const Clock::time_point sent = Clock::now();
    const live::FlushReport report = send(burst, op);
    const Clock::time_point done = Clock::now();
    ops.add(traced, ms_between(due, done));
    flushes.emplace_back(sent, done);
    ++result.attempted;
    if (!report.published) ++unpublished;
    if (traced) {
      reports.push_back(report);
      late_ms.push_back(ms_between(due, sent));
    }
  }
  reader.join();
  tracer.set_enabled(false);

  result.attempted += reads.attempted;
  result.failed = unpublished + reads.failed;
  result.gate(unpublished == 0, "every burst was applied and published");
  {
    std::unique_ptr<core::Pipeline> cold = node->w->make_pipeline();
    cold->load(bgp::replay_to_collection(node->pushed, bgp::ReplayOptions{}));
    result.gate(snapshot_bytes(*cold) == snapshot_bytes(*node->pipeline),
                "the final live snapshot equals a cold load of the live RIB");
  }

  report_common(args, ops, tracer, result);
  finish_setups(args, node, setup_s, setup, result);
  if (!args.trace) return;
  std::vector<double> apply_ms, build_ms, publish_us, days, rebuilt, kept_ratio;
  double fast = 0;
  for (const live::FlushReport& r : reports) {
    apply_ms.push_back(r.apply_seconds * 1e3);
    build_ms.push_back(r.census_seconds * 1e3);
    publish_us.push_back(r.publish_seconds * 1e6);
    days.push_back(static_cast<double>(r.apply.days_resanitized));
    rebuilt.push_back(static_cast<double>(r.apply.shards_rebuilt));
    const double memos = static_cast<double>(r.apply.country_memos_kept + r.apply.country_memos_evicted);
    kept_ratio.push_back(memos > 0 ? static_cast<double>(r.apply.country_memos_kept) / memos : 0.0);
    if (r.apply.sanitize_fast_path) ++fast;
  }
  // FlushReport's phase timings are program-reported.
  result.metric("core.apply_ms", median(apply_ms), "ms");
  result.metric("serve.snapshot_build_ms", median(build_ms), "ms");
  result.metric("serve.publish_us", median(publish_us), "us");
  result.metric("sanitize.days_resanitized", median(days), "count");
  result.metric("core.shards_rebuilt", median(rebuilt), "count");
  result.metric("core.memo_kept_ratio", median(kept_ratio), "ratio");
  result.metric("sanitize.fast_path_ratio",
                reports.empty() ? 0.0 : fast / static_cast<double>(reports.size()), "ratio");
  result.metric("live.push_us", median(tracer.durations_ms("live.push")) * 1e3, "us");
  result.metric("live.flush_ms", median(tracer.durations_ms("live.flush")), "ms");
  result.metric("live.generator_late_ms", median(late_ms), "ms");

  (void)report_reads(reads, window, result);
  std::vector<double> during_flush;
  for (const ReadSample& s : reads.samples) {
    const Clock::time_point end =
        s.start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::micro>(s.us));
    for (const auto& [from, to] : flushes) {
      if (s.start < to && end > from) {
        during_flush.push_back(s.us);
        break;
      }
    }
  }
  result.metric("serve.read_during_flush_p99_us", quantile(during_flush, 0.99), "us");
  const serve::ServiceCounters counters = node->service.counters();
  const double lookups = static_cast<double>(counters.cache_hits + counters.cache_misses);
  result.metric("serve.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(counters.cache_hits) / lookups : 0.0, "ratio");
  result.metric("serve.status_4xx", static_cast<double>(counters.status_4xx), "count");
  result.metric("serve.status_5xx", static_cast<double>(counters.status_5xx), "count");
}

}  // namespace perfbench
