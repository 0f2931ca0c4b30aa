// End-to-end pipeline (Figure 6): RIB text -> parse -> sanitize ->
// geolocate -> ShardedPathStore -> shard views -> rankings. This is the
// library's front door: it owns the wiring so applications configure
// data sources once and query country metrics from the same sanitized
// path set.
//
// load() builds a core::ShardedPathStore over the sanitized paths; every
// per-country query then runs over that country's shard (borrowed
// columns, precomputed index lists) instead of gathering from a global
// store. Per-country results are memoized with SHARD-GRANULAR eviction:
// a reload compares each country's shard content digest (plus its geo
// evidence) against the previous world and only drops the entries that
// actually changed, so reloading near-identical RIBs keeps the census
// warm. all_countries() fans out over shards largest-first
// (util::parallel_for_costed) so one giant country cannot serialize the
// tail. All queries are safe to call concurrently from multiple threads.
//
// Everything one load produces — sanitized rows, store, parse stats,
// geo evidence, digests and the memo — is one World value held by
// shared_ptr: a load or apply_updates builds the next World whole and
// swaps the pointer in, and a Checkpoint is a second pointer to it.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <vector>

#include "bgp/mrt_stream.hpp"
#include "bgp/mrt_text.hpp"
#include "core/confidence.hpp"
#include "core/country_health.hpp"
#include "core/country_rankings.hpp"
#include "core/sharded_path_store.hpp"
#include "rank/ahc.hpp"
#include "rank/cti.hpp"
#include "sanitize/incremental_sanitizer.hpp"
#include "sanitize/path_sanitizer.hpp"

namespace georank::core {

/// One loaded world (pipeline.cpp): the Pipeline's per-load state.
struct World;

struct PipelineConfig {
  sanitize::SanitizerOptions sanitizer;
  rank::HegemonyOptions hegemony;
  /// Ingest knobs for load_text()/load_stream(): strict vs tolerant,
  /// base_time/day horizon, chunking and worker count.
  bgp::MrtStreamOptions ingest;
  /// Thresholds mapping per-country evidence onto the ConfidenceTier
  /// every CountryMetrics is annotated with (paper defaults).
  DegradationPolicy degradation;
};

class Pipeline {
 public:
  /// All referenced objects must outlive the pipeline.
  Pipeline(const geo::GeoDatabase& geo_db, const geo::VpGeolocator& vps,
           const sanitize::AsnRegistry& registry,
           const topo::AsGraph& relationships, PipelineConfig config = {});

  /// Ingest RIBs; either form runs the sanitizer immediately and builds
  /// the next world around a fresh ShardedPathStore; memoized results
  /// of countries whose shard content and geo evidence are unchanged
  /// stay cached, the rest are dropped.
  ///
  /// Reload safety: load() takes the pipeline's reload lock exclusively
  /// for the swap, and every VALUE-returning query (country(), outbound(),
  /// all_countries(), the global rankings) holds it shared for its whole
  /// body — so a query racing a reload returns a result computed
  /// entirely against one world, never a mix. Accessors that return
  /// REFERENCES (sanitized(), store(), parse_stats()) cannot extend that
  /// guarantee past their return; do not hold them across a reload.
  void load(const bgp::RibCollection& ribs);
  /// bgpdump-style text (see bgp/mrt_text.hpp), ingested through the
  /// chunked parallel bgp::MrtStreamLoader per config.ingest; the
  /// structured diagnostics (per-reason counters, samples, throughput)
  /// are retained in parse_stats(). In strict mode malformed input
  /// throws bgp::MrtParseError before any sanitization runs.
  void load_text(std::string_view mrt_text);
  /// Same, streaming from an istream in bounded memory.
  void load_stream(std::istream& is);

  /// What an incremental reload did — the observability record behind
  /// the live pipeline's flush reports. Every writer counts by one
  /// rule: a shard or memo is kept when its country's digest equals the
  /// outgoing world's.
  struct ApplyResult {
    std::size_t shards_kept = 0;     // digest unchanged from the outgoing world
    std::size_t shards_rebuilt = 0;  // digest changed, or the country is new
    std::size_t memos_evicted = 0;   // per-country results dropped
    std::size_t memos_kept = 0;      // per-country results still warm
    /// memos_* restricted to the country-rankings memo (the census
    /// cache): deterministic for a given reload, where the aggregate
    /// counts above also reflect which outbound/health queries happened
    /// to have warmed the cache beforehand.
    std::size_t country_memos_evicted = 0;
    std::size_t country_memos_kept = 0;
    /// apply_delta patched the changed rows in place (no day was
    /// re-filtered); false when the sanitizer ran in full.
    bool sanitize_fast_path = false;
    std::size_t days_resanitized = 0;  // days the sanitizer re-filtered
  };

  /// Reloads a changed collection and reports what the reload kept. The
  /// sanitizer's filters are globally coupled — covered-prefix pruning,
  /// stability counts, geo consensus — so the collection is re-sanitized
  /// in full; load() shares this body. The next world (rows, a fresh
  /// store, geo evidence, digests) is built outside the reload lock, and
  /// only the pointer swap takes it exclusively; memo entries whose
  /// country digest is unchanged are carried into the new world as
  /// shared pointers, so only countries that actually changed lose
  /// their memoized rankings and health entries. Queries afterwards are
  /// bit-identical to a from-scratch load() of the same collection.
  /// parse_stats() is carried over (updates arrive pre-parsed). When
  /// the caller knows the burst itself, apply_delta() is O(burst).
  ApplyResult apply_updates(const bgp::RibCollection& ribs);

  /// The O(burst) counterpart of apply_updates() for a burst that
  /// changed only final day `day` of the collection last loaded or
  /// applied: `deltas` are its net changes, at most one per (VP, prefix)
  /// key, each with the path the key held in that collection. The
  /// sanitizer re-filters each changed key's old and new entry only and
  /// patches the (VP, prefix)-sorted final-day rows, stats and dedup
  /// state in place (sanitize::IncrementalSanitizer::plan_delta), geo
  /// evidence adjusts per-prefix tallies, and the store re-interns the
  /// changed rows and re-gathers only the shards of countries on an old
  /// or new changed row. The result is bit-identical to apply_updates()
  /// of the changed collection. Returns nullopt — world untouched —
  /// when a proof fails: nothing loaded, an inferred clique, audit
  /// samples on, a final day not keyed by route, a prefix whose
  /// final-day presence crosses the stability threshold, an old path
  /// the loaded world does not hold, a restore() since the last load()
  /// or apply_updates(), or a live Checkpoint sharing the current world
  /// (the patch would rewrite the checkpointed world too); the caller
  /// then falls back to apply_updates(), which builds a fresh world.
  /// Plans outside the reload lock and takes it exclusively only for
  /// the in-place patch.
  std::optional<ApplyResult> apply_delta(int day,
                                         std::span<const bgp::RouteDelta> deltas);

  /// Per-country geolocation evidence behind the confidence annotation:
  /// accepted effective addresses (distinct sanitized prefixes), plus
  /// the no-consensus address weight AND prefix count attributed to the
  /// country's plurality (the latter feeds country_health()). Rebuilt on
  /// every load; all-zero for countries with no evidence.
  struct GeoEvidence {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t rejected_prefixes = 0;
  };
  [[nodiscard]] GeoEvidence geo_evidence(geo::CountryCode country) const;

  /// A captured world: a shared pointer to the world that was current
  /// when checkpoint() ran — its sanitized paths, store, geo evidence,
  /// digests and memo. Nothing is copied. restore() swaps it back
  /// without re-running the sanitizer, re-gathering the store or
  /// recomputing a single ranking, so a caller that flips between two
  /// worlds (the what-if engine re-arming its baseline after each
  /// counterfactual, DESIGN.md §4i) pays a pointer swap instead of a
  /// reload. While a Checkpoint shares the current world, apply_delta()
  /// declines rather than patch it. Default-constructed = empty; only
  /// hand it back to the pipeline that made it.
  class Checkpoint {
   private:
    friend class Pipeline;
    std::shared_ptr<World> world_;  // null: empty checkpoint
  };

  /// Captures the currently loaded world, including the memo entries it
  /// holds (queries against it afterwards keep warming the same memo).
  /// Serialized against load()/apply_updates()/restore() like any
  /// reload. Throws std::logic_error("Pipeline::checkpoint(): no RIBs
  /// loaded") before load().
  [[nodiscard]] Checkpoint checkpoint() const;

  /// Swaps the checkpointed world back in under the exclusive reload
  /// lock. Queries afterwards are bit-identical to a load() of the
  /// checkpointed collection, and every memo that world holds is warm
  /// (no recompute needed). The sanitizer's memo is not captured
  /// (what-ifs never take the delta path it serves): restore()
  /// invalidates it, so apply_delta() declines until a load() or
  /// apply_updates() re-arms it.
  /// The returned counters diff the checkpoint against the OUTGOING
  /// world by digest: shards_kept counts shards whose content was
  /// already identical, shards_rebuilt the rest; memos_evicted counts
  /// outgoing cache entries whose country changed between the two
  /// worlds (their counterfactual values were dropped), memos_kept the
  /// restored world's entries, now warm. sanitize_fast_path and
  /// days_resanitized are always false/0 (nothing was sanitized).
  /// Throws std::logic_error on an empty checkpoint.
  ApplyResult restore(const Checkpoint& checkpoint);

  /// Whether a world is loaded. Takes the reload lock shared so a racing
  /// load() is observed either entirely before or entirely after.
  [[nodiscard]] bool loaded() const;
  [[nodiscard]] const sanitize::SanitizeResult& sanitized() const;
  /// The sharded columnar store all per-country queries run against.
  [[nodiscard]] const ShardedPathStore& store() const;
  /// Diagnostics from the most recent load_text()/load_stream();
  /// reset to empty by a plain load() (which has no parse phase).
  [[nodiscard]] const bgp::MrtParseStats& parse_stats() const noexcept;

  /// The four country metrics (CCI/CCN/AHI/AHN). Memoized: repeat queries
  /// for the same country return the cached result.
  /// Throws std::logic_error("Pipeline::country(): no RIBs loaded") when
  /// called before load()/load_text().
  [[nodiscard]] CountryMetrics country(geo::CountryCode country) const;

  /// The outbound extension (CCO/AHO): who the country crosses to reach
  /// the rest of the world. Memoized like country().
  [[nodiscard]] OutboundMetrics outbound(geo::CountryCode country) const;

  /// One country's health record under config().degradation, memoized
  /// like country() and evicted shard-granularly on reload — this is
  /// what keeps serve::Snapshot::build from re-scanning every shard's
  /// rows on an incremental republish (robust::compute_health routes
  /// through it when the policy matches the pipeline's).
  [[nodiscard]] CountryHealth country_health(
      geo::CountryCode country) const;

  /// country_health() for every census country (store().countries()
  /// order). Memo hits are resolved inline; only the misses fan out,
  /// largest shard first, so a fully warm report starts no thread.
  [[nodiscard]] std::vector<CountryHealth> all_country_health() const;

  /// The full census: CountryMetrics for EVERY country with at least one
  /// geolocated prefix, sorted by country code. Computed in parallel
  /// over shards, largest shard first (util::parallel_for_costed with
  /// each shard's cost hint; GEORANK_THREADS caps the workers), with
  /// each country written to its own slot — the result is deterministic
  /// and identical across thread counts. Results land in the same memo
  /// cache country() uses; memo hits are resolved inline and only the
  /// misses fan out, so a fully warm census starts no thread.
  [[nodiscard]] std::vector<CountryMetrics> all_countries() const;

  /// Drops all memoized per-country results unconditionally (reloads
  /// instead evict shard-granularly; see load()).
  void clear_caches() const;

  /// Memo-cache occupancy, for tests and ops introspection: how many
  /// per-country results a reload kept warm.
  struct CacheStats {
    std::size_t countries = 0;
    std::size_t outbounds = 0;
    std::size_t healths = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Global baselines for comparison tables.
  [[nodiscard]] rank::Ranking global_cone_by_as_count() const;    // CCG
  [[nodiscard]] rank::Ranking global_cone_by_addresses() const;
  [[nodiscard]] rank::Ranking global_hegemony() const;            // AHG
  /// IHR-style country hegemony (needs AS registration data).    // AHC
  [[nodiscard]] rank::Ranking ahc(const rank::AsRegistry& registry,
                                  geo::CountryCode country) const;
  /// Country-level transit influence baseline.                   // CTI
  [[nodiscard]] rank::Ranking cti(geo::CountryCode country) const;

  /// The configuration the pipeline was constructed with (immutable for
  /// its lifetime; serve::Snapshot::build reads the degradation policy).
  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

  [[nodiscard]] const CountryRankings& rankings() const noexcept { return rankings_; }
  [[nodiscard]] const topo::AsGraph& relationships() const noexcept {
    return *relationships_;
  }
  /// The geolocation database the pipeline was built over (the live
  /// layer maps touched prefixes onto country sets through it).
  [[nodiscard]] const geo::GeoDatabase& geo_db() const noexcept {
    return *geo_db_;
  }

 private:
  /// The body of every load() form and apply_updates(): sanitizes
  /// `ribs` in full and builds the next world outside the reload lock,
  /// with `stats` as its parse stats (nullopt: the current world's),
  /// then publishes it.
  ApplyResult swap_in(const bgp::RibCollection& ribs,
                      std::optional<bgp::MrtParseStats> stats);
  /// Waits out queued writers, takes the reload lock shared and throws
  /// std::logic_error("<where>: no RIBs loaded") when no world is
  /// loaded: the prologue of every value-returning query.
  [[nodiscard]] std::shared_lock<std::shared_mutex> read_lock(
      const char* where) const;
  /// Memo-routed census over the store's countries(): hits inline under
  /// the memo mutex, misses through `compute` (a memoizing query),
  /// fanned out largest shard first. `map` picks the memo map.
  template <class Value, class Map, class Compute>
  [[nodiscard]] std::vector<Value> census_of(Map map, const char* where,
                                             const Compute& compute) const;
  /// Throws std::logic_error("<where>: no RIBs loaded") before load().
  void require_loaded(const char* where) const;

  const geo::GeoDatabase* geo_db_;
  const geo::VpGeolocator* vps_;
  const sanitize::AsnRegistry* registry_;
  const topo::AsGraph* relationships_;
  PipelineConfig config_;
  CountryRankings rankings_;
  // The sanitizer's cross-load memo (behind apply_delta). Touched only
  // by writers, serialized among themselves by Locks::load_serial —
  // queries never read it.
  sanitize::IncrementalSanitizer sanitizer_;
  // The current world; null before the first load. The pointer is
  // swapped, and apply_delta patches the world, only under the
  // exclusive reload lock. Queries read it under the shared lock and
  // never copy the pointer, so use_count() counts exactly the
  // pipeline and the live Checkpoints.
  std::shared_ptr<World> world_;

  // `reload` orders queries against writers: a writer holds it
  // exclusive for the swap or patch, value-returning queries hold it
  // shared (always acquired BEFORE a world's memo mutex). Boxed so
  // Pipeline stays movable despite the locks.
  struct Locks {
    std::shared_mutex reload;
    /// Makes `reload` writer-preferring. glibc's shared_mutex prefers
    /// readers, so queries that overlap back to back keep it shared
    /// forever and starve load(). A writer holds the gate from before it
    /// asks for `reload` until it lets go; every reader passes through
    /// the gate first (wait_for_writers()), so once a writer is waiting
    /// only the reads already past the gate finish ahead of it. Always
    /// acquired after `load_serial` and before `reload`.
    std::mutex reload_gate;
    void wait_for_writers() {
      const std::lock_guard<std::mutex> pass(reload_gate);
    }
    /// Serializes whole writers (load, apply_updates, apply_delta,
    /// checkpoint, restore) against each other: they use the sanitizer
    /// memo and build the next world OUTSIDE the reload lock, which only
    /// the swap takes. Always acquired before `reload`.
    std::mutex load_serial;
  };
  std::unique_ptr<Locks> locks_ = std::make_unique<Locks>();
};

}  // namespace georank::core
