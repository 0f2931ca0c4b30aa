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
// re-filters the whole final day.
//
// The interner memo. Dedup keys name cleaned paths by PathInterner id
// (sanitize/filter_detail.hpp), so the memo keeps the interner beside
// the dedup set, and core::Pipeline::Checkpoint copies the two with the
// rest of this object. run_fast() rewinds by id lookup; plan_delta()
// looks ids up without interning (a path the interner lacks is in no
// key), and commit_delta() interns the rows it adds. Ids are never
// reclaimed in between, so the memo counts the keys per id: once the
// interner holds more than twice the ids some key names, can_fast_path()
// and plan_delta() decline, and the caller's fallback run_full() starts
// a fresh interner. A long live run therefore stays bounded.
//
// The delta path (plan_delta() + commit_delta(), behind
// core::Pipeline::apply_delta) handles exactly those bursts without the
// collection: the caller names each changed (VP, prefix) key's old and
// new entry, and only those entries are re-decided (detail::classify).
// It needs a final day keyed by route — strictly (VP, prefix)-sorted,
// as RibState snapshots are — so each key has at most one final-day
// entry and one row; then a dedup key can only collide with a head-day
// key (head-day keys still win) or with the same key's old entry. Its
// proofs: the fast-path preconditions (explicit clique, a memo), no
// audit samples (their budget follows encounter order), and an
// unchanged stable set, which a delta can only break where a prefix's
// final-day presence (the per-prefix `day_entries` tally) crosses the
// threshold. It also cross-checks every old entry against the memo —
// an old entry that emitted a row must find that row, one that did not
// must find none — and declines on any mismatch, leaving the caller to
// fall back.
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

#include <cstdint>
#include <optional>
#include <span>
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
    /// Dedup keys of the erased rows. Each inserted row's key is
    /// interned and inserted by commit_delta.
    std::vector<detail::DedupKey> dedup_erase;
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
    return memo_valid_ ? memo_.head_rows : 0;
  }

  [[nodiscard]] const SanitizerOptions& options() const noexcept {
    return options_;
  }

  /// Paths the memo's interner holds, and how many of them a memoized
  /// dedup key names. The fast and delta paths decline once the first
  /// passes twice the second (see the header comment).
  [[nodiscard]] std::size_t interned_paths() const noexcept {
    return memo_.state.paths.size();
  }
  [[nodiscard]] std::size_t live_paths() const noexcept { return live_paths_; }

 private:
  const geo::GeoDatabase* geo_db_;
  const geo::VpGeolocator* vps_;
  const AsnRegistry* registry_;
  SanitizerOptions options_;

  // ---- Memo of the last sanitized collection (valid_ gates all). ----
  bool memo_valid_ = false;
  std::vector<std::uint64_t> day_digests_;  // one per day, order-sensitive
  std::uint64_t stable_digest_ = 0;         // stable set over ALL N days
  // What the last full run captured, kept current by the fast and delta
  // runs: the sequential filter state right before the final day
  // (head_*), day presence over days [0, N-1) and over all N days, the
  // stability threshold, and prefix_geo.covered as a set (the stable set
  // pins it, so it outlives every fast and delta run until the next full
  // run). memo_.state is the dedup set and its interner AFTER the final
  // day: run_fast() derives the final-day boundary from it by erasing
  // exactly the keys the old final day's rows inserted; plan_delta()
  // reads it as is.
  detail::RunCapture memo_;
  // Per interned path id, the number of memoized dedup keys naming it.
  // Ids whose count fell to 0 stay interned until the next run_full();
  // paths_sparse() bounds them.
  std::vector<std::uint32_t> path_refs_;
  std::size_t live_paths_ = 0;  // ids with a non-zero count
  // The final day is keyed by route (strictly (VP, prefix)-sorted, with
  // a later day number than the day before it) and no samples are kept:
  // the delta path's structural preconditions.
  bool delta_ready_ = false;
  int final_day_number_ = 0;  // day number of the memoized final day

  void retain(std::uint32_t id);
  void release(std::uint32_t id) noexcept;
  /// More interned paths than twice the live ones: the fast and delta
  /// paths decline, so the caller's run_full() starts a fresh interner.
  [[nodiscard]] bool paths_sparse() const noexcept {
    return memo_.state.paths.size() > 2 * live_paths_;
  }

  // ---- Staged by can_fast_path() for the next run_fast(). ----
  bool pending_ready_ = false;
  detail::DayCounts pending_counts_;  // head counts + new final day
  std::uint64_t pending_final_digest_ = 0;
};

}  // namespace georank::sanitize
