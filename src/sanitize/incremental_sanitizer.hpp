// A PathSanitizer that remembers its last run.
//
// The live pipeline re-sanitizes the whole replay window on every flush,
// but between two flushes only the FINAL day of the window changes (new
// updates land on the current day; closed days are immutable). Every
// sanitizer filter is still globally coupled across days — stability
// counts, the covered-prefix set, geo consensus, and the sequential
// dedup set all read the whole collection — so the memo proves, rather
// than assumes, that the cross-day inputs are unchanged before taking
// the fast path:
//
//   - a content digest per day shows days [0, N-1) are byte-for-byte the
//     collection the memo was built from;
//   - the merged stability counts (head counts + new final day) must
//     yield the SAME stable-prefix set (order-independent digest), which
//     pins every head filtering decision and makes the cached
//     PrefixGeoResult (computed over exactly that set) reusable;
//   - the clique must be explicit in the options — an inferred clique
//     reads the final day's stable paths, so inference always falls back
//     to a full run;
//   - the dedup set and sample budget carried from the previous run
//     restore the exact sequential state a batch run would have at the
//     final-day boundary (derived by erasing the keys the old final
//     day's rows inserted — one per emitted suffix row).
//
// When all of that holds, run_fast() reuses the previous result's head
// rows (rows are emitted day-major, so they are a prefix of `paths`) and
// re-filters only the final day. When the new final day is additionally
// a strict EXTENSION of the memoized one — same day number, old entries
// a literal prefix, proven by a resumable content fold — run_fast()
// keeps the previous result wholesale and filters only the appended
// tail, making an append-only burst O(delta) instead of O(final day).
// Appended entries cannot change the day-presence of previously-seen
// final-day prefixes ({count, last_day} counts each prefix once per
// day), and any NEW prefix crossing the stability threshold changes the
// stable-set digest and rejects the fast path, so the extension is
// sound. A burst that REPLACES or withdraws a route is not an append,
// so through run_fast() it re-filters the whole final day.
//
// The delta path (plan_delta() + commit_delta(), behind
// core::Pipeline::apply_delta) handles exactly those bursts without the
// collection: the caller names each changed (VP, prefix) key's old and
// new entry, and only those entries are re-filtered. It needs a final
// day keyed by route — strictly (VP, prefix)-sorted, as RibState
// snapshots are — so each key has at most one final-day entry and one
// row; then a dedup key can only collide with a head-day key (head-day
// keys still win) or with the same key's old entry. Its proofs: the
// fast-path preconditions (explicit clique, a memo), no audit samples
// (their budget follows encounter order), and an unchanged stable set,
// which a delta can only break where a prefix's final-day presence
// (the per-prefix `day_entries` tally) crosses the threshold. It also
// cross-checks every old entry against the memo — an old entry that
// emitted a row must find that row, one that did not must find none —
// and declines on any mismatch, leaving the caller to fall back.
//
// The output is identical to
// PathSanitizer::run over the same collection by construction — the same
// per-entry loop (sanitize/filter_detail.hpp) runs over provably equal
// inputs — which is what lets the live pipeline publish snapshots
// byte-identical to a batch recompute. Any mismatch falls back to
// run_full(), which is PathSanitizer::run plus memo capture.
//
// One deliberate semantic refinement vs the historical sanitizer: day
// presence is counted with a {count, last_day} pair instead of a per-
// prefix day set, which assumes snapshots arrive with non-decreasing day
// numbers (repeats adjacent). Every producer in-tree — the generators,
// replay_to_collection, the live window — satisfies this.
//
// Not thread-safe: callers serialize run_full/can_fast_path/run_fast/
// plan_delta/commit_delta (core::Pipeline holds its load-serial mutex
// across them).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sanitize/filter_detail.hpp"
#include "sanitize/path_sanitizer.hpp"

namespace georank::sanitize {

class IncrementalSanitizer {
 public:
  /// What a run did, for flush observability.
  struct Outcome {
    bool fast_path = false;
    std::size_t days_reused = 0;
    std::size_t days_resanitized = 0;
    /// Result rows PROVEN byte-identical to the previous run's leading
    /// rows (the memoized head). Non-zero only on the fast path, where
    /// downstream consumers may reuse per-row derivations for the
    /// unchanged prefix (ShardedPathStore::rebuild's head hint).
    std::size_t rows_reused = 0;
  };

  IncrementalSanitizer(const geo::GeoDatabase& geo_db,
                       const geo::VpGeolocator& vps, const AsnRegistry& registry,
                       SanitizerOptions options = {});

  /// Full batch run (identical to PathSanitizer::run), capturing the
  /// boundary memo that enables subsequent fast paths. Capture is
  /// skipped (and the fast path stays unavailable) when the clique is
  /// inferred rather than explicit.
  [[nodiscard]] SanitizeResult run_full(const bgp::RibCollection& ribs,
                                        Outcome* outcome = nullptr);

  /// True iff `ribs` differs from the memoized collection in the final
  /// day only AND the stable-prefix set is unchanged. On success the
  /// merged stability counts are staged for run_fast(); on failure the
  /// caller must use run_full(). Digest-verified, not assumed.
  [[nodiscard]] bool can_fast_path(const bgp::RibCollection& ribs);

  /// Incremental run after a successful can_fast_path(): consumes the
  /// previous result (of the memoized collection) and re-filters only
  /// the final day. Falls back to run_full() if no check is staged.
  [[nodiscard]] SanitizeResult run_fast(const bgp::RibCollection& ribs,
                                        SanitizeResult&& previous,
                                        Outcome* outcome = nullptr);

  /// A staged delta run (plan_delta), applied by commit_delta.
  struct DeltaPlan {
    /// Final-day rows the delta drops: ascending indices into the rows
    /// of the result the plan was made against.
    std::vector<std::uint32_t> erase;
    /// Rows it adds, in (VP, prefix) order.
    std::vector<SanitizedPath> insert;
    SanitizeStats stats;  // the result's stats after the delta
    std::vector<detail::DedupKey> dedup_erase;
    std::vector<detail::DedupKey> dedup_insert;
    /// Day counts of each touched prefix after the delta.
    std::vector<std::pair<bgp::Prefix, detail::PrefixDays>> counts;
  };

  /// How a committed delta moved the rows: ascending indices of the rows
  /// it dropped (into the rows before the commit) and of the rows it
  /// added (into the rows after it). Every other row kept its content
  /// and relative order.
  struct RowEdit {
    std::vector<std::uint32_t> erased;
    std::vector<std::uint32_t> inserted;
  };

  /// Stages a delta run against `current`, the result of the last run:
  /// `deltas` are net changes to final day `day`, at most one per
  /// (VP, prefix) key, with old paths as the memoized collection holds
  /// them. Re-filters each changed key's old and new entry only.
  /// Returns nullopt when a proof fails (see the header comment); the
  /// memo and `current` are untouched either way.
  [[nodiscard]] std::optional<DeltaPlan> plan_delta(
      int day, std::span<const bgp::RouteDelta> deltas,
      const SanitizeResult& current) const;

  /// Applies a plan from plan_delta() to the result it was made against,
  /// patching its final-day rows and stats in place and re-arming the
  /// memo at the patched final day.
  RowEdit commit_delta(DeltaPlan&& plan, SanitizeResult& result,
                       Outcome* outcome = nullptr);

  /// Drops the memo; the next run must be run_full().
  void invalidate() noexcept;

  /// Drops only what the delta path reads (the all-day counts), so a
  /// copy kept aside stays small; plan_delta() then declines until the
  /// next run_full() or run_fast() re-arms it.
  void drop_delta_memo() noexcept;

  /// Row count of the memoized head — how many leading rows of the LAST
  /// run's result were emitted for days [0, N-1). 0 when the memo is
  /// invalid. Lets callers cache per-row derivations at the same
  /// boundary the fast path splices at.
  [[nodiscard]] std::size_t memo_head_rows() const noexcept {
    return memo_valid_ ? head_rows_ : 0;
  }

  [[nodiscard]] const SanitizerOptions& options() const noexcept {
    return options_;
  }

 private:
  const geo::GeoDatabase* geo_db_;
  const geo::VpGeolocator* vps_;
  const AsnRegistry* registry_;
  SanitizerOptions options_;

  // ---- Memo of the last sanitized collection (valid_ gates all). ----
  bool memo_valid_ = false;
  std::vector<std::uint64_t> day_digests_;  // one per day, order-sensitive
  std::size_t need_ = 0;                    // stability threshold used
  detail::DayCounts head_counts_;           // day presence over days [0, N-1)
  detail::DayCounts counts_;                // day presence over ALL N days
  std::uint64_t stable_digest_ = 0;         // stable set over ALL N days
  // prefix_geo.covered as a set. The stable set pins it, so it outlives
  // every fast and delta run until the next full run.
  std::unordered_set<bgp::Prefix, bgp::PrefixHash> covered_;
  // The final day is keyed by route (strictly (VP, prefix)-sorted, with
  // a later day number than the day before it) and no samples are kept:
  // the delta path's structural preconditions.
  bool delta_ready_ = false;
  // Sequential filter state captured at the final-day boundary: what a
  // batch run holds right before filtering the last day.
  SanitizeStats head_stats_;
  std::array<std::size_t, 9> head_sample_counts_{};
  std::vector<RejectedSample> head_samples_;
  std::size_t head_rows_ = 0;
  // Sequential filter state AFTER the full run (post the final day).
  // The boundary state run_fast() resumes from is derived on demand:
  // the replace path erases exactly the keys the old final day's rows
  // inserted; the append path needs no rewind at all — it continues the
  // fold from here over just the appended tail.
  detail::DedupSet dedup_post_;
  std::array<std::size_t, 9> post_sample_counts_{};
  // Final-day identity for the append detection: day number, entry
  // count, and the resumable content fold over those entries. A new
  // final day whose first `final_len_` entries fold to the same value
  // is PROVEN to extend the memoized day (fold_entries' prefix
  // property), so only entries[final_len_..] need filtering.
  int final_day_number_ = 0;
  std::size_t final_len_ = 0;
  std::uint64_t final_entries_fold_ = 0;
  // A committed delta patches the final day without its entries, so the
  // fold no longer describes it; append detection stays off until the
  // next run_full() or run_fast() folds the day again.
  bool final_fold_valid_ = false;

  // ---- Staged by can_fast_path() for the next run_fast(). ----
  bool pending_ready_ = false;
  bool pending_append_ = false;       // final day is a strict extension
  detail::DayCounts pending_counts_;  // head counts + new final day
  std::uint64_t pending_final_digest_ = 0;
};

}  // namespace georank::sanitize
