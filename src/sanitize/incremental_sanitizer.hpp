// A PathSanitizer that remembers its last run, so a burst of route
// changes can be applied without re-sanitizing the collection.
//
// Every sanitizer filter is globally coupled across days — stability
// counts, the covered-prefix set, geo consensus and the sequential
// dedup set all read the whole collection (§3.1) — so there are two
// ways to sanitize: run_full(), which is PathSanitizer::run plus memo
// capture, and the delta path, plan_delta() + commit_delta() behind
// core::Pipeline::apply_delta. Everything else (a new day, a rewritten
// day, a burst the delta path cannot prove) is a full run.
//
// The delta path. The caller names each changed (VP, prefix) key of the
// final day with its old and new entry, and only those entries are
// re-decided (detail::classify). It needs a final day keyed by route —
// strictly (VP, prefix)-sorted, as RibState snapshots are — so each key
// has at most one final-day entry and one row; then a dedup key can only
// collide with a head-day key (head-day keys still win) or with the same
// key's old entry. Its proofs: an explicit clique (an inferred one reads
// every stable path), no audit samples (their budget follows encounter
// order), and an unchanged stable set, which a delta can only break
// where a prefix's final-day presence (the per-prefix `day_entries`
// tally) crosses the threshold. It also cross-checks every old entry
// against the memo — an old entry that emitted a row must find that
// row, one that did not must find none — and declines on any mismatch,
// leaving the caller to fall back to run_full(). run_full() captures the
// memo only when the structural proofs hold.
//
// The interner memo. Dedup keys name cleaned paths by PathInterner id
// (sanitize/filter_detail.hpp), so the memo keeps the interner beside
// the dedup set. plan_delta() looks ids up without interning (a path
// the interner lacks is in no key), and commit_delta() interns the rows
// it adds. Ids are never reclaimed in between, so the memo counts the
// keys per id: once the interner holds more than twice the ids some key
// names, plan_delta() declines, and the caller's fallback run_full()
// starts a fresh interner. A long live run therefore stays bounded.
//
// The output is identical to PathSanitizer::run over the same collection
// by construction — the same per-entry classifier
// (sanitize/filter_detail.hpp) runs over provably equal inputs — which
// is what lets the live pipeline publish snapshots byte-identical to a
// batch recompute.
//
// One deliberate semantic refinement vs the historical sanitizer: day
// presence is counted with a {count, last_day} pair instead of a per-
// prefix day set, which assumes snapshots arrive with non-decreasing day
// numbers (repeats adjacent). Every producer in-tree — the generators,
// replay_to_collection, the live window — satisfies this.
//
// Not thread-safe: callers serialize run_full/plan_delta/commit_delta
// (core::Pipeline holds its load-serial mutex across them).
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
  IncrementalSanitizer(const geo::GeoDatabase& geo_db,
                       const geo::VpGeolocator& vps, const AsnRegistry& registry,
                       SanitizerOptions options = {});

  /// Full batch run (identical to PathSanitizer::run), capturing the
  /// memo the delta path builds on. Capture is skipped (and plan_delta()
  /// declines) when the clique is inferred, audit samples are on or the
  /// final day is not keyed by route.
  [[nodiscard]] SanitizeResult run_full(const bgp::RibCollection& ribs);

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
  RowEdit commit_delta(DeltaPlan&& plan, SanitizeResult& result);

  /// Drops the memo; plan_delta() declines until the next run_full().
  void invalidate() noexcept;

  /// Paths the memo's interner holds, and how many of them a memoized
  /// dedup key names. plan_delta() declines once the first passes
  /// twice the second (see the header comment).
  [[nodiscard]] std::size_t interned_paths() const noexcept {
    return memo_.state.paths.size();
  }
  [[nodiscard]] std::size_t live_paths() const noexcept { return live_paths_; }

 private:
  const geo::GeoDatabase* geo_db_;
  const geo::VpGeolocator* vps_;
  const AsnRegistry* registry_;
  SanitizerOptions options_;

  // ---- Memo of the last full run, kept current by commit_delta;
  // memo_valid_ gates all. ----
  bool memo_valid_ = false;
  // What the last full run captured: the final day's first row
  // (head_rows), day presence over all N days, the stability threshold,
  // prefix_geo.covered as a set (the stable set pins it, so it outlives
  // every delta until the next full run), and the dedup set and its
  // interner after the final day.
  detail::RunCapture memo_;
  // Per interned path id, the number of memoized dedup keys naming it.
  // Ids whose count fell to 0 stay interned until the next run_full();
  // paths_sparse() bounds them.
  std::vector<std::uint32_t> path_refs_;
  std::size_t live_paths_ = 0;  // ids with a non-zero count
  int final_day_number_ = 0;    // day number of the memoized final day

  void retain(std::uint32_t id);
  void release(std::uint32_t id) noexcept;
  /// More interned paths than twice the live ones: plan_delta()
  /// declines, so the caller's run_full() starts a fresh interner.
  [[nodiscard]] bool paths_sparse() const noexcept {
    return memo_.state.paths.size() > 2 * live_paths_;
  }
};

}  // namespace georank::sanitize
