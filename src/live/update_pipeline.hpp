// live::UpdatePipeline — update streams in, re-ranked snapshots out.
//
// The batch path recomputes the world from scratch on every refresh;
// this layer keeps the world LIVE against a collector's announce/
// withdraw stream instead (DESIGN.md §4f):
//
//   push() --> bounded reorder buffer --> watermark drain --> RibState
//                                                              |
//   flush(): burst delta -> Pipeline::apply_delta --------------+
//            (or rolling day window -> Pipeline::apply_updates)
//            -> Snapshot::build -> RankingService::publish (RCU)
//
// Updates enter a bounded buffer ordered by timestamp; everything at or
// below the watermark (max timestamp seen minus reorder_window) is
// drained into the live bgp::RibState, closing a day — and any quiet
// days it skipped — whenever the day index advances. After flush_batch
// applied updates the pipeline flushes. When no day closed since the
// previous flush, the batch's net per-(VP, prefix) changes go through
// core::Pipeline::apply_delta, which re-decides only those routes;
// otherwise (or when apply_delta declines) the current day window is
// re-sanitized as one collection through core::Pipeline::apply_updates.
// Either way digest-verified shard reuse + shard-granular memo eviction
// do the rest, a serve::Snapshot is built — only countries whose shard
// digest changed re-rank — and published through the service's RCU
// swap. Each flush also maps the batch's touched prefixes onto
// their country sets through the pipeline's geolocation database, so
// the FlushReport names the countries a burst actually moved.
//
// Bit-identity invariant (tested): after draining any replayed archive,
// the published snapshot's census equals a from-scratch batch recompute
// of the same final RIB state bit for bit. The sanitizer's filters are
// globally coupled, so its incremental fast path digest-VERIFIES that
// only the live day changed before re-filtering just that day (falling
// back to a full run otherwise; see sanitize::IncrementalSanitizer),
// the day semantics mirror bgp::replay_to_collection exactly, and
// ranking accumulation order is shard-deterministic — so incrementality
// changes latency, never results.
//
// Threading: an UpdatePipeline instance is driven by ONE feeder thread;
// it is not itself thread-safe. Concurrent READERS are fine — they go
// through the RankingService / core::Pipeline locks as usual.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bgp/update_stream.hpp"
#include "core/pipeline.hpp"
#include "geo/country.hpp"
#include "serve/ranking_service.hpp"
#include "serve/snapshot.hpp"

namespace georank::live {

struct Checkpoint;     // checkpoint.hpp
class UpdateJournal;   // journal.hpp

/// What happens when the reorder buffer exceeds max_pending. Both
/// policies are deterministic functions of the push sequence, so a
/// journal replay re-makes the same decisions (recovery bit-identity).
enum class OverflowPolicy : std::uint8_t {
  /// Drain the oldest pending updates early (they are the buffer's
  /// minimum timestamps, so the applied sequence stays monotone). The
  /// default: nothing is lost, the reorder window just shrinks.
  kDrainOldest = 0,
  /// Shed the arriving update instead: tolerant mode counts it
  /// (stats().shed, `/metrics` georank_live_shed_total), strict mode
  /// throws bgp::UpdateReplayError{kBufferOverflow}.
  kShedNewest,
};

struct UpdatePipelineOptions {
  /// Auto-flush after this many updates applied to the live table.
  std::size_t flush_batch = 4096;
  /// Bounded reorder buffer: past this many pending updates the
  /// overflow policy below decides who pays.
  std::size_t max_pending = 65536;
  OverflowPolicy overflow = OverflowPolicy::kDrainOldest;
  /// Seconds an update may lag the newest timestamp seen and still be
  /// re-ordered instead of dropped. 0 = drain immediately (semantics
  /// identical to bgp::replay_to_collection).
  std::uint64_t reorder_window = 0;

  // Day semantics — must match the batch replay for bit-identity.
  std::uint64_t base_time = 1617235200;
  int max_day = 366;
  bgp::ParseMode mode = bgp::ParseMode::kTolerant;
  /// Days retained in the flush collection (closed days + the live
  /// day). 0 = keep every day, which is REQUIRED for bit-identity with
  /// a batch recompute of the full archive; a positive window bounds
  /// memory on endless feeds at the cost of that equivalence once the
  /// window starts dropping days.
  std::size_t window_days = 0;

  // Published snapshot identity: flush n gets id snapshot_id_base + n
  /// and created_unix = the last applied timestamp (deterministic — the
  /// library never reads a clock for snapshot identity).
  std::uint64_t snapshot_id_base = 1;
  std::string label;
};

/// What one flush did. Timings are steady-clock phase latencies.
struct FlushReport {
  /// False when nothing was applied since the previous flush (the
  /// pipeline and service are left untouched).
  bool published = false;
  std::uint64_t snapshot_id = 0;
  std::size_t batch = 0;  // updates applied since the previous flush
  std::size_t announces = 0;
  std::size_t withdraws = 0;
  std::size_t touched_prefixes = 0;
  /// Countries the batch's prefixes geolocate to (sorted, valid only).
  std::vector<geo::CountryCode> touched_countries;
  core::Pipeline::ApplyResult apply;
  double apply_seconds = 0.0;    // sanitize + shard rebuild + evict
  double census_seconds = 0.0;   // Snapshot::build (changed countries re-rank)
  double publish_seconds = 0.0;  // RCU swap
  double total_seconds = 0.0;
};

/// Cumulative stream accounting (mirrors bgp::ReplayStats, plus
/// batching state).
struct LiveStats {
  std::uint64_t pushed = 0;
  std::uint64_t applied = 0;
  std::uint64_t announces = 0;
  std::uint64_t withdraws = 0;
  std::uint64_t out_of_order = 0;      // tolerant-mode drops
  std::uint64_t day_out_of_range = 0;  // tolerant-mode drops
  std::uint64_t days_closed = 0;
  std::uint64_t quiet_days = 0;
  std::uint64_t flushes = 0;
  std::uint64_t publishes = 0;
  std::uint64_t shed = 0;         // kShedNewest drops (tolerant mode)
  std::uint64_t checkpoints = 0;  // checkpoint files published
};

class UpdatePipeline {
 public:
  /// `pipeline` must already be wired to its data sources (it need not
  /// be loaded — the first flush loads it); both references must
  /// outlive the UpdatePipeline.
  UpdatePipeline(core::Pipeline& pipeline, serve::RankingService& service,
                 UpdatePipelineOptions options = {});

  /// Feeds one update through the reorder buffer, draining everything
  /// at or below the watermark into the live table. Returns the flush
  /// report when this push crossed the flush_batch threshold. In strict
  /// mode a drained update violating the stream contract throws
  /// bgp::UpdateReplayError (index = its push sequence number).
  std::optional<FlushReport> push(const bgp::UpdateMessage& update);

  /// Republishes the current live state (applied updates only; the
  /// reorder buffer keeps waiting for its watermark). No-op report with
  /// published=false when nothing changed since the last flush.
  FlushReport flush();

  /// End of stream: forces the entire reorder buffer through the live
  /// table, then flushes.
  FlushReport drain();

  /// Archive parse diagnostics to roll into the service's ingest
  /// counters (the feeder parses; this layer only reports).
  void set_parse_stats(const bgp::MrtParseStats& stats) { parse_stats_ = stats; }

  // ---- Durability (DESIGN.md §4g) ----------------------------------

  /// Attaches the write-ahead journal: every subsequent push appends
  /// its record BEFORE the buffer absorbs it. The journal's next_seq()
  /// must equal this pipeline's (throws JournalError{kBadSequence}
  /// otherwise — attaching a stale journal would fork the history).
  /// Pass nullptr to detach. The journal must outlive the pipeline.
  void set_journal(UpdateJournal* journal);

  /// Enables periodic checkpoints: every `every` pushes, full pipeline
  /// state is published atomically to `path` and journal segments the
  /// checkpoint covers are dropped. 0 disables automatic checkpoints
  /// (write_checkpoint() still works for shutdown).
  void set_checkpoint(std::string path, std::uint64_t every);

  /// Captures complete pipeline state at the current journal boundary.
  [[nodiscard]] Checkpoint make_checkpoint() const;

  /// Syncs the journal, publishes a checkpoint to the configured path
  /// (no-op without one) and GCs covered journal segments.
  void write_checkpoint();

  /// Replaces all pipeline state with a checkpoint's. The service is
  /// not republished — recovery replays the journal suffix next, and
  /// the first flush after that publishes with the correct continued
  /// snapshot id. See live::recover().
  void restore(const Checkpoint& checkpoint);

  /// Sequence number the next push will consume (= journaled records
  /// so far when a journal has been attached from the start).
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return seq_; }

  [[nodiscard]] const LiveStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const bgp::RibState& rib() const noexcept { return rib_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size(); }
  [[nodiscard]] const UpdatePipelineOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Pending {
    bgp::UpdateMessage update;
    std::uint64_t seq = 0;  // push order, for strict-mode error reports
  };

  /// Applies every buffered update with timestamp <= `watermark`.
  void drain_up_to(std::uint64_t watermark);
  /// Applies one update to the live table (day bookkeeping included).
  void apply_one(const Pending& pending);
  /// Sorted valid countries the batch's prefixes geolocate to.
  [[nodiscard]] std::vector<geo::CountryCode> touched_countries() const;
  void report_ingest(const FlushReport& report);
  /// Publishes an automatic checkpoint when the push count crosses the
  /// configured interval.
  void maybe_checkpoint();

  core::Pipeline* pipeline_;
  serve::RankingService* service_;
  UpdatePipelineOptions options_;

  // Durability hooks (both optional; see DESIGN.md §4g).
  UpdateJournal* journal_ = nullptr;
  std::string checkpoint_path_;
  std::uint64_t checkpoint_every_ = 0;

  /// Reorder stage: multimap keeps equal timestamps in insertion order,
  /// so an already-ordered archive drains in exactly its input order.
  std::multimap<std::uint64_t, Pending> buffer_;
  std::uint64_t max_seen_ = 0;
  std::uint64_t last_applied_ts_ = 0;
  std::uint64_t seq_ = 0;

  bgp::RibState rib_;
  /// The flush collection, maintained in place: closed days accumulate
  /// here as the stream crosses day boundaries (trimmed to window_days
  /// from the front), and flush() appends the live day's snapshot for
  /// the apply_updates call, then pops it. Closed days are immutable
  /// between flushes — re-materializing them per flush would copy the
  /// whole window, and their stability is exactly what the sanitizer's
  /// incremental fast path digests against.
  bgp::RibCollection window_;
  int current_day_ = -1;

  // Delta hand-off (reset at flush). While `delta_ready_` — the core
  // pipeline holds exactly the window as of the last flush and no day
  // has closed since — `batch_before_` maps each key the batch touched
  // to its path at the last flush (nullopt: no route), recorded on
  // first touch from rib_. Proportional to the batch; no RIB copy.
  struct RouteKey {
    bgp::VpId vp;
    bgp::Prefix prefix;
    friend auto operator<=>(const RouteKey&, const RouteKey&) = default;
  };
  bool delta_ready_ = false;
  std::map<RouteKey, std::optional<bgp::AsPath>> batch_before_;

  // Current batch (reset at flush).
  std::size_t batch_applied_ = 0;
  std::size_t batch_announces_ = 0;
  std::size_t batch_withdraws_ = 0;
  std::vector<bgp::Prefix> batch_prefixes_;  // deduplicated at flush

  LiveStats stats_;
  bgp::MrtParseStats parse_stats_;
  double republish_seconds_sum_ = 0.0;
  double last_republish_seconds_ = 0.0;
  std::uint64_t last_batch_ = 0;
};

}  // namespace georank::live
