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
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <unordered_map>
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
#include "util/thread_safety.hpp"

namespace georank::core {

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

  /// Ingest RIBs; either form runs the sanitizer immediately, builds the
  /// ShardedPathStore and evicts memoized results for every country
  /// whose shard content (or geo evidence) changed — unchanged countries
  /// stay cached.
  ///
  /// Reload safety: load() takes the pipeline's reload lock exclusively,
  /// and every VALUE-returning query (country(), outbound(),
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
  /// the live pipeline's flush reports.
  struct ApplyResult {
    std::size_t shards_kept = 0;     // digest unchanged, columns reused
    std::size_t shards_rebuilt = 0;  // re-gathered from scratch
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
  /// in full; load() shares this body. The store is REBUILT in place:
  /// shards whose content digest is unchanged keep their columns, and
  /// only countries whose digest actually changed lose their memoized
  /// rankings and health entries. Queries afterwards are bit-identical
  /// to a from-scratch load() of the same collection. parse_stats() is
  /// left untouched (updates arrive pre-parsed). Takes the reload lock
  /// exclusively for the swap, like load(). When the caller knows the
  /// burst itself, apply_delta() is O(burst).
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
  /// the loaded world does not hold, or a restore() since the last
  /// load() or apply_updates(); the caller then falls back to
  /// apply_updates(). Plans outside the reload lock and takes it
  /// exclusively only for the in-place patch.
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

  /// A captured world: the sanitized path set, a deep copy of the
  /// sharded store, the geo evidence, the per-country digests and the
  /// memo cache contents, all as they stood when checkpoint() ran.
  /// restore() swaps it back WITHOUT re-running the sanitizer,
  /// re-gathering the store or recomputing a single ranking — every
  /// piece is copied back — so a caller that flips between two worlds
  /// (the what-if engine re-arming its baseline after each
  /// counterfactual, DESIGN.md §4i) pays O(world) memcpy instead of a
  /// reload. Opaque and move-only (it owns a store clone);
  /// only hand it back to the pipeline that made it — the interning
  /// arena and digests are private to that instance's history.
  class Checkpoint {
   private:
    friend class Pipeline;
    std::optional<sanitize::SanitizeResult> sanitized_;  // empty: no world
    ShardedPathStore store_;
    bgp::MrtParseStats parse_stats_;
    std::unordered_map<geo::CountryCode, GeoEvidence, geo::CountryCodeHash>
        geo_evidence_;
    std::unordered_map<std::uint16_t, std::uint64_t> country_digests_;
    std::unordered_map<std::uint16_t, std::uint64_t> outbound_digests_;
    std::unordered_map<std::uint16_t, CountryMetrics> cache_country_;
    std::unordered_map<std::uint16_t, OutboundMetrics> cache_outbound_;
    std::unordered_map<std::uint16_t, CountryHealth> cache_health_;
  };

  /// Captures the currently loaded world, including which per-country
  /// results are memoized right now. Serialized against
  /// load()/apply_updates()/restore() like any reload. Throws
  /// std::logic_error("Pipeline::checkpoint(): no RIBs loaded") before
  /// load().
  [[nodiscard]] Checkpoint checkpoint() const;

  /// Swaps a checkpointed world back in by copy. Queries afterwards are
  /// bit-identical to a load() of the checkpointed collection, and the
  /// memo cache holds exactly the entries it held at capture time (every
  /// memo that was warm then is warm again — no recompute needed). The
  /// sanitizer's memo is not captured (what-ifs never take the delta
  /// path it serves): restore() invalidates it, so apply_delta()
  /// declines until a load() or apply_updates() re-arms it.
  /// The returned counters diff the checkpoint against the OUTGOING
  /// world: shards_kept counts shards whose content was already
  /// identical (the swap was a no-op for them), shards_rebuilt the ones
  /// the copy replaced; memos_evicted counts outgoing cache entries
  /// whose country changed between the two worlds (their counterfactual
  /// values were dropped), memos_kept the checkpointed entries now warm.
  /// sanitize_fast_path/days_resanitized are always false/0 (nothing
  /// was sanitized). Throws std::logic_error on an empty checkpoint.
  ApplyResult restore(const Checkpoint& checkpoint);

  /// Whether a world is loaded. Takes the reload lock shared so a racing
  /// load() is observed either entirely before or entirely after.
  [[nodiscard]] bool loaded() const;
  [[nodiscard]] const sanitize::SanitizeResult& sanitized() const;
  /// The sharded columnar store all per-country queries run against.
  [[nodiscard]] const ShardedPathStore& store() const;
  /// Diagnostics from the most recent load_text()/load_stream();
  /// reset to empty by a plain load() (which has no parse phase).
  [[nodiscard]] const bgp::MrtParseStats& parse_stats() const noexcept {
    return parse_stats_;
  }

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
  /// `ribs` in full outside the reload lock, then swaps the new world —
  /// paths, store, geo evidence and, when given, parse stats — in under
  /// one exclusive hold, finishing with shard-granular memo eviction.
  /// A load (`stats` given) builds a fresh store; apply_updates rebuilds
  /// the current one in place.
  ApplyResult swap_in(const bgp::RibCollection& ribs,
                      std::optional<bgp::MrtParseStats> stats);
  /// Recomputes geo_evidence_ and prefix_rows_ from sanitized_. Called
  /// under the exclusive reload lock.
  void rebuild_geo_evidence();
  /// Moves one row's prefix in or out of the per-prefix tallies behind
  /// geo_evidence_ (apply_delta's patch). Under the exclusive lock.
  void count_geo_evidence_row(const sanitize::SanitizedPath& row, bool added);
  /// Memo-routed census over store_->countries(): hits inline under the
  /// memo mutex, misses through `compute` (a memoizing query), fanned
  /// out largest shard first.
  template <class Value, class Memo, class Compute>
  [[nodiscard]] std::vector<Value> census_of(const Memo& memo,
                                             const char* where,
                                             const Compute& compute) const;
  /// Compares the new world's per-country digests against the previous
  /// ones and erases only the memo entries whose digest changed (or
  /// whose country vanished). Called under the exclusive reload lock.
  /// Returns {evicted, kept} counts across both memo maps.
  struct EvictStats {
    std::size_t evicted = 0;
    std::size_t kept = 0;
    /// Same counts restricted to the country-rankings map — the memo
    /// the census reuses, reported separately because outbound/health
    /// warmth depends on which queries ran, not on the reload itself.
    std::size_t country_evicted = 0;
    std::size_t country_kept = 0;
  };
  EvictStats evict_changed_countries();
  /// Throws std::logic_error("<where>: no RIBs loaded") before load().
  void require_loaded(const char* where) const;
  [[nodiscard]] CountryMetrics country_uncached(geo::CountryCode country) const;
  /// core::shard_health over the country's shard and attributed
  /// rejections (the worker robust::compute_health shares); called with
  /// the reload lock held shared.
  [[nodiscard]] CountryHealth country_health_uncached(
      geo::CountryCode country) const;

  const geo::GeoDatabase* geo_db_;
  const geo::VpGeolocator* vps_;
  const sanitize::AsnRegistry* registry_;
  const topo::AsGraph* relationships_;
  PipelineConfig config_;
  CountryRankings rankings_;
  // The sanitizer's cross-load memo (behind apply_delta). Touched only
  // by writers, serialized among themselves by MemoCache::load_serial —
  // queries never read it.
  sanitize::IncrementalSanitizer sanitizer_;
  std::optional<sanitize::SanitizeResult> sanitized_;
  std::optional<ShardedPathStore> store_;
  bgp::MrtParseStats parse_stats_;
  std::unordered_map<geo::CountryCode, GeoEvidence, geo::CountryCodeHash>
      geo_evidence_;
  // Accepted rows per distinct sanitized prefix in the current world: a
  // prefix's accepted weight counts toward its country while it has at
  // least one row. apply_delta adjusts these (and a prefix's country
  // tally when its count leaves or reaches zero) instead of rescanning.
  std::unordered_map<bgp::Prefix, std::uint32_t, bgp::PrefixHash> prefix_rows_;
  // Per-country content digests of the CURRENT world, written only under
  // the exclusive reload lock (like the rest of the world state above).
  // `country_digests_` folds geo evidence in (CountryMetrics.confidence
  // depends on it); `outbound_digests_` is the raw shard digest.
  std::unordered_map<std::uint16_t, std::uint64_t> country_digests_;
  std::unordered_map<std::uint16_t, std::uint64_t> outbound_digests_;

  // Memoized per-country results, keyed by CountryCode::raw(). The mutex
  // only guards map access; metric computation happens outside it, so
  // concurrent all_countries() workers never serialize on each other.
  // `reload` orders queries against load(): load() holds it exclusive,
  // value-returning queries hold it shared (always acquired BEFORE
  // `mutex`). Boxed so Pipeline stays movable despite the locks.
  struct MemoCache {
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
    /// Serializes whole load()/apply_updates() calls against each other
    /// (they mutate the sanitizer memo OUTSIDE the reload lock, which
    /// only the swap takes). Always acquired before `reload`.
    std::mutex load_serial;
    std::mutex mutex;
    std::unordered_map<std::uint16_t, CountryMetrics> country
        GEORANK_GUARDED_BY(mutex);
    std::unordered_map<std::uint16_t, OutboundMetrics> outbound
        GEORANK_GUARDED_BY(mutex);
    std::unordered_map<std::uint16_t, CountryHealth> health
        GEORANK_GUARDED_BY(mutex);
  };
  std::unique_ptr<MemoCache> cache_ = std::make_unique<MemoCache>();
};

}  // namespace georank::core
