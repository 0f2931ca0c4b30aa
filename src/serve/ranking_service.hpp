// serve::RankingService — the in-process query API over immutable
// snapshots.
//
// Concurrency model (RCU-style): the active serve::Snapshot is an
// immutable value behind a shared_mutex-guarded shared_ptr. current()
// takes the shared lock just long enough to copy the pointer — readers
// never block each other, and a publish() blocks them only for that
// pointer swap. A request in flight keeps its shared_ptr alive and
// finishes against the world it started with, so responses are never
// torn across a reload. (std::atomic<std::shared_ptr> would make the
// swap wait-free, but libstdc++ 12's _Sp_atomic unlocks its embedded
// spin bit with a relaxed store, which ThreadSanitizer rightly cannot
// prove race-free — the same shared_mutex idiom core::Pipeline uses is
// just as fast here and verifiable.) A small bounded history of
// published snapshots feeds the delta/timeline queries
// (core::rank_delta / core::timeline over consecutive publishes).
//
// handle() is the HTTP-shaped front door: it routes a request target
// ("/v1/rankings?country=AU&metric=cci") to a JSON response, so the
// transport (serve::HttpServer) stays a dumb byte pump and unit tests
// can drive the exact serving logic without sockets. Rendered 200
// responses go through a bounded LRU keyed by (target, snapshot id) —
// a reload naturally invalidates every key.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rank_delta.hpp"
#include "core/timeline.hpp"
#include "robust/staleness.hpp"
#include "scenario/engine.hpp"
#include "serve/snapshot.hpp"
#include "util/thread_safety.hpp"

namespace georank::serve {

/// The four served metrics, shared with the timeline machinery.
using Metric = core::TimelineMetric;

/// "cci" / "ccn" / "ahi" / "ahn" (case-insensitive); nullopt otherwise.
[[nodiscard]] std::optional<Metric> parse_metric(std::string_view text) noexcept;
/// Returned view points at a string literal (static storage): never dangles.
[[nodiscard]] std::string_view to_string(Metric metric) noexcept;

/// Selects a metric's ranking from a snapshot entry (delegates to
/// core::select_metric).
[[nodiscard]] const rank::Ranking& ranking_of(const core::CountryMetrics& metrics,
                                              Metric metric);

struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

struct RankingServiceOptions {
  /// Rendered-response LRU entries (0 disables caching).
  std::size_t cache_capacity = 256;
  /// Snapshots retained for delta/timeline queries (>= 1).
  std::size_t history_limit = 8;
  /// top-K when the request does not say; requests are clamped to max.
  std::size_t default_top_k = 10;
  std::size_t max_top_k = 1000;
};

/// Live-ingest and republish accounting, set by the feeding layer
/// (live::UpdatePipeline after each flush, or the CLI after a replay)
/// and rendered into /metrics. All counters are cumulative over the
/// feeder's lifetime; zero until a feeder reports.
struct IngestCounters {
  std::uint64_t updates_applied = 0;
  std::uint64_t announces = 0;
  std::uint64_t withdraws = 0;
  /// Withdrawals of routes the live table never held (RibState evidence).
  std::uint64_t spurious_withdrawals = 0;
  /// Stream-contract violations skipped in tolerant mode.
  std::uint64_t out_of_order = 0;
  std::uint64_t day_out_of_range = 0;
  /// Update-archive parse diagnostics (MrtParseStats rollup).
  std::uint64_t parse_lines = 0;
  std::uint64_t parse_malformed = 0;
  /// Incremental republishes through publish(), and their latency.
  std::uint64_t republishes = 0;
  double republish_seconds_sum = 0.0;
  double last_republish_seconds = 0.0;
  std::uint64_t last_batch = 0;
  /// Reorder-overflow sheds (OverflowPolicy::kShedNewest, tolerant mode).
  std::uint64_t shed = 0;
  /// Checkpoint files published by the live pipeline.
  std::uint64_t checkpoints = 0;

  friend bool operator==(const IngestCounters&, const IngestCounters&) = default;
};

/// Live-pipeline freshness, set by the feeder from live::HealthMonitor
/// and rendered on /v1/health (a "live" block) and /metrics. The
/// never-fabricate principle again: a service with no live feeder
/// attached reports that (`valid` false — no "live" block, attached
/// gauge 0) instead of pretending to be fresh.
struct LiveHealth {
  bool valid = false;
  robust::ServingState state = robust::ServingState::kFresh;
  double age_seconds = 0.0;
  double stale_after_seconds = 0.0;
  double degraded_after_seconds = 0.0;
  /// Entries into each state, indexed by ServingState.
  std::array<std::uint64_t, robust::kServingStateCount> entered{};
  std::uint64_t reopen_failures = 0;
  std::uint64_t reopen_successes = 0;
  double last_backoff_seconds = 0.0;

  friend bool operator==(const LiveHealth&, const LiveHealth&) = default;
};

/// Monotonic counters, snapshotted for /metrics.
struct ServiceCounters {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t status_2xx = 0;
  std::uint64_t status_4xx = 0;
  std::uint64_t status_5xx = 0;
  std::uint64_t reloads = 0;
  /// meta.id of the active snapshot; 0 when none published yet.
  std::uint64_t active_snapshot_id = 0;
};

class RankingService {
 public:
  explicit RankingService(RankingServiceOptions options = {});

  /// RCU swap: readers in flight keep the old snapshot; new requests
  /// see the new one. Also appends to the delta/timeline history and
  /// resets the response cache. `snapshot` must not be null.
  void publish(std::shared_ptr<const Snapshot> snapshot);

  /// The active snapshot (nullptr before the first publish). Readers
  /// copy the pointer under a shared lock and then run lock-free on
  /// the immutable snapshot.
  [[nodiscard]] std::shared_ptr<const Snapshot> current() const;

  // ------------------------------------------------------------------
  // Structured queries (what the JSON endpoints render; tests compare
  // these against the batch pipeline/CLI results).

  /// Delta of `metric` for `country` between the two most recent
  /// snapshots — exactly core::compare_rankings over their rankings.
  /// With a single publish the comparison is snapshot-vs-itself (no
  /// movement). nullopt when no snapshot, or the country is in neither.
  struct DeltaResult {
    std::uint64_t before_id = 0;
    std::uint64_t after_id = 0;
    core::RankDelta delta;
  };
  [[nodiscard]] std::optional<DeltaResult> delta(geo::CountryCode country,
                                                 Metric metric,
                                                 std::size_t top_k);

  /// core::Timeline over every retained snapshot that contains
  /// `country`, labeled by snapshot label (or id when unlabeled).
  /// nullopt when the country appears in no retained snapshot.
  [[nodiscard]] std::optional<core::Timeline> timeline(geo::CountryCode country);

  // ------------------------------------------------------------------
  // HTTP-shaped front door.

  /// Routes a request target (path + optional query string) to a
  /// response. Known routes: /, /v1/rankings, /v1/as/{asn}, /v1/health,
  /// /v1/delta, /metrics. 400 = malformed parameter, 404 = unknown
  /// route/country, 503 = no snapshot published yet. Equivalent to
  /// handle("GET", target, {}).
  [[nodiscard]] Response handle(std::string_view target);

  /// Method-aware front door. POST is served only on /v1/whatif: `body`
  /// is a scenario DSL text, computed through the attached WhatIfEngine
  /// and LRU-cached by (scenario content hash, snapshot id) — publish()
  /// clears the cache, so republished snapshots never serve stale
  /// counterfactuals. 405 = method/route mismatch, 503 = no engine
  /// attached or no snapshot yet.
  [[nodiscard]] Response handle(std::string_view method,
                                std::string_view target,
                                std::string_view body);

  /// Attaches the counterfactual engine /v1/whatif queries run through
  /// (nullptr detaches; the endpoint then answers 503). The engine must
  /// outlive the service.
  void set_whatif(scenario::WhatIfEngine* engine) {
    whatif_.store(engine, std::memory_order_release);
  }

  /// Counter snapshot (relaxed reads; pair with /metrics rendering).
  [[nodiscard]] ServiceCounters counters() const;

  /// Replaces the ingest counter set (the feeder owns the accumulation;
  /// the service only exposes the latest values).
  void set_ingest(const IngestCounters& counters);
  [[nodiscard]] IngestCounters ingest() const;

  /// Replaces the live-health snapshot (ticked by the feeder loop).
  /// Bumps the health cache version so /v1/health re-renders even when
  /// the active snapshot has not changed.
  void set_live_health(const LiveHealth& health);
  [[nodiscard]] LiveHealth live_health() const;

  /// Prometheus-style text for the service-level counters, including
  /// the georank_ingest_*/georank_live_* lines. The HTTP server appends
  /// its transport metrics (latency histogram) to this.
  [[nodiscard]] std::string metrics_text() const;

  [[nodiscard]] const RankingServiceOptions& options() const noexcept {
    return options_;
  }

 private:
  struct HistoryPair {
    std::shared_ptr<const Snapshot> before, after;
  };
  [[nodiscard]] HistoryPair latest_pair();

  /// Serves a GET. `path` (trailing slashes stripped) and `query` are
  /// the halves handle() split `target` into; the raw `target` keys the
  /// response cache.
  [[nodiscard]] Response route(std::string_view target, std::string_view path,
                               std::string_view query);
  [[nodiscard]] Response render_whatif(std::string_view query,
                                       std::string_view body);
  [[nodiscard]] Response render_index(const Snapshot* snapshot) const;
  [[nodiscard]] Response render_rankings(const Snapshot& snapshot,
                                         std::string_view query) const;
  [[nodiscard]] Response render_as_lookup(const Snapshot& snapshot,
                                          std::string_view asn_text) const;
  [[nodiscard]] Response render_health(const Snapshot& snapshot) const;
  [[nodiscard]] Response render_delta(std::string_view query);

  [[nodiscard]] std::optional<std::string> cache_get(const std::string& key);
  void cache_put(const std::string& key, const std::string& body);

  RankingServiceOptions options_;

  // lint: guarded(the lock itself; mutable so current() stays const)
  mutable std::shared_mutex current_mutex_;
  std::shared_ptr<const Snapshot> current_ GEORANK_GUARDED_BY(current_mutex_);

  std::mutex history_mutex_;
  /// Oldest -> newest, bounded by options_.history_limit.
  std::deque<std::shared_ptr<const Snapshot>> history_
      GEORANK_GUARDED_BY(history_mutex_);

  std::mutex cache_mutex_;
  /// LRU: most recent at the front; index maps key -> list node.
  std::list<std::pair<std::string, std::string>> cache_lru_
      GEORANK_GUARDED_BY(cache_mutex_);
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, std::string>>::iterator>
      cache_index_ GEORANK_GUARDED_BY(cache_mutex_);

  // lint: guarded(the lock itself; mutable so ingest_counters() stays const)
  mutable std::mutex ingest_mutex_;
  IngestCounters ingest_ GEORANK_GUARDED_BY(ingest_mutex_);
  LiveHealth live_health_ GEORANK_GUARDED_BY(ingest_mutex_);
  /// Folded into the /v1/health cache key: staleness changes must not
  /// serve a cached "fresh" body for the same snapshot id.
  std::atomic<std::uint64_t> live_health_version_{0};

  /// The counterfactual backend; detached (nullptr) unless the host
  /// wired one up (serve --dir; snapshot-file serving has no RIBs).
  std::atomic<scenario::WhatIfEngine*> whatif_{nullptr};

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> status_2xx_{0};
  std::atomic<std::uint64_t> status_4xx_{0};
  std::atomic<std::uint64_t> status_5xx_{0};
  std::atomic<std::uint64_t> reloads_{0};
};

/// The /v1/whatif 200 body: a pure function of (report, snapshot id),
/// shared with `georank whatif --out` so the CLI and the endpoint emit
/// byte-identical JSON (scripts/ci.sh whatif tier compares them).
[[nodiscard]] std::string render_whatif_json(const scenario::Report& report,
                                             std::uint64_t snapshot_id);

}  // namespace georank::serve
