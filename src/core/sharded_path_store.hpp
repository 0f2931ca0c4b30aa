// ShardedPathStore: the internet-scale successor to the monolithic
// PathStore. The sanitized path set is split into per-country shards —
// one independently-owned column set per country (see path_shard.hpp) —
// plus ONE shared interned-hop dictionary, so no single contiguous
// column allocation ever holds the whole world and every layer above
// (views, rank kernels, census, snapshot, health) works country-local.
//
// Build is two-phase:
//
//   1. Hop interning is a single deterministic pass over the input in
//      row order — the exact algorithm PathStore uses (FNV-1a bucket,
//      full content compare), so the dictionary, unique-path count and
//      arena are bit-identical to the monolithic build.
//   2. Shard assignment marks each row's target shard(s) sequentially
//      (a row lands in its prefix country's shard and, if different,
//      its VP country's shard; invalid codes never create shards), then
//      the per-shard column gather, selection lists, digest and cost
//      hint are built SHARD-PARALLEL via util::parallel_for — shards
//      are independent, so workers never touch the same memory.
//
// Determinism: shard rows keep ascending global row order and the
// selection lists are ascending, so any metric computed over a shard
// view accumulates in exactly the order the monolithic store produced —
// results are bit-identical to PathStore's and independent of the build
// thread count.
//
// Lifetime: the store owns arena + shards; shards and every view
// derived from them borrow it. Not copyable (shards point into the
// shared arena); movable (vector buffers are stable across moves).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/path_shard.hpp"
#include "core/views.hpp"
#include "geo/country.hpp"
#include "sanitize/path_view.hpp"

namespace georank::core {

class ShardedPathStore {
 public:
  ShardedPathStore() = default;
  /// Builds the shared dictionary and all shards from the sanitizer's
  /// output. `paths` is only read during construction. `threads` caps
  /// the shard-parallel gather (0 = util::default_thread_count()).
  explicit ShardedPathStore(std::span<const sanitize::SanitizedPath> paths,
                            std::size_t threads = 0);

  ShardedPathStore(const ShardedPathStore&) = delete;
  ShardedPathStore& operator=(const ShardedPathStore&) = delete;
  ShardedPathStore(ShardedPathStore&&) noexcept = default;
  ShardedPathStore& operator=(ShardedPathStore&&) noexcept = default;
  ~ShardedPathStore() = default;

  /// Explicit deep copy: every column, selection list, the dictionary
  /// and the cached row derivations are copied, and the copy's shards
  /// are re-pointed at ITS arena (the reason the copy constructor is
  /// deleted rather than defaulted — a memberwise copy would leave the
  /// shards borrowing the original's hop storage). O(world) in straight
  /// memcpy-sized chunks, so it is much cheaper than a rebuild(), which
  /// re-interns and re-gathers row by row: Pipeline::checkpoint()/
  /// restore() flip between two worlds with it.
  [[nodiscard]] ShardedPathStore clone() const;

  struct RebuildStats {
    std::size_t shards_kept = 0;     // digest unchanged, columns reused
    std::size_t shards_rebuilt = 0;  // gathered from scratch
  };

  /// Rebuilds the store in place from a new sanitized path set, KEEPING
  /// any shard whose content digest (and row count) is unchanged — its
  /// columns, selection lists and cost hint are moved over untouched.
  /// The interned-hop dictionary is retained and append-only across
  /// rebuilds, so kept shards' handles stay valid; unique_path_count()
  /// and arena_hop_count() therefore also count paths no current row
  /// uses. To keep that garbage bounded, a rebuild or patch() that
  /// leaves more than twice as many arena hops as the live rows hold
  /// compacts: it re-interns the live rows into a fresh dictionary and
  /// re-gathers every shard. Queries on the rebuilt store are
  /// bit-identical to a fresh build from `paths`.
  ///
  /// `unchanged_prefix_rows` is the caller's PROOF (not a hint to be
  /// guessed at — pass the incremental sanitizer's Outcome::rows_reused,
  /// which is digest-verified) that the first that many rows of `paths`
  /// are byte-identical to the first rows of the previous rebuild's
  /// input. When non-zero, their cached handles and shard row lists are
  /// reused — re-interning them would walk the same buckets of the
  /// append-only dictionary and return the same handles — and shards
  /// whose row lists are untouched by the suffix are moved over without
  /// even re-digesting their content: the rebuild is the patch() that
  /// erases the old suffix and inserts the new one, so it interns and
  /// gathers O(suffix) rows. A wrong value silently corrupts the store;
  /// 0 (the default) always performs the full scan.
  RebuildStats rebuild(std::span<const sanitize::SanitizedPath> paths,
                       std::size_t threads = 0,
                       std::size_t unchanged_prefix_rows = 0);

  /// Applies a sparse row edit: `paths` is the previous input with the
  /// rows at `erased` (ascending indices into the PREVIOUS input)
  /// removed and new rows at `inserted` (ascending indices into
  /// `paths`); every other row must be byte-identical to its previous
  /// self and keep its relative order — a proof the caller owes, as
  /// with rebuild()'s unchanged head (core::Pipeline::apply_delta passes
  /// the sanitizer's committed RowEdit). Re-interns only the inserted
  /// rows, re-gathers only the shards that lose or gain a row (a row
  /// lands in its prefix country's and VP country's shards), and moves
  /// every other shard over without re-digesting it. Queries afterwards
  /// are bit-identical to a fresh build from `paths`.
  RebuildStats patch(std::span<const sanitize::SanitizedPath> paths,
                     std::span<const std::uint32_t> erased,
                     std::span<const std::uint32_t> inserted,
                     std::size_t threads = 0);

  /// Total sanitized rows across the world (rows double-homed into two
  /// shards count once).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The shard for `country`, or nullptr when no path touches it (or
  /// the code is invalid). Shards are sorted by country code.
  [[nodiscard]] const PathShard* shard(geo::CountryCode country) const noexcept;
  [[nodiscard]] std::span<const PathShard> shards() const noexcept {
    return shards_;
  }

  /// All countries with >= 1 geolocated prefix (sorted ascending) — the
  /// census domain of Pipeline::all_countries().
  [[nodiscard]] const std::vector<geo::CountryCode>& countries() const noexcept {
    return prefix_countries_;
  }
  /// All countries hosting >= 1 VP (sorted ascending).
  [[nodiscard]] const std::vector<geo::CountryCode>& vp_countries() const noexcept {
    return vp_countries_;
  }

  // Zero-copy shard-backed views (empty views for unknown countries,
  // matching PathStore's contract).
  [[nodiscard]] CountryView national_view(geo::CountryCode country) const;
  [[nodiscard]] CountryView international_view(geo::CountryCode country) const;
  [[nodiscard]] CountryView outbound_view(geo::CountryCode country) const;
  [[nodiscard]] CountryView view(geo::CountryCode country, ViewKind kind) const;

  /// Per-census-country cost hints, parallel to countries() — feeds
  /// parallel_for_costed so the biggest country is ranked first.
  [[nodiscard]] std::vector<std::uint64_t> census_costs() const;

  /// Content digest of one country's shard (see PathShard::digest);
  /// 0 when the country has no shard.
  [[nodiscard]] std::uint64_t shard_digest(geo::CountryCode country) const noexcept;

  // Interning accounting (shared dictionary; bench/scale reports these).
  [[nodiscard]] std::size_t unique_path_count() const noexcept {
    return unique_paths_;
  }
  [[nodiscard]] std::size_t arena_hop_count() const noexcept {
    return arena_.size();
  }

 private:
  /// Shared interned-hop dictionary all shards' handles index into.
  /// Append-only across rebuilds so previously issued handles stay valid.
  std::vector<bgp::Asn> arena_;
  /// Interning index over arena_ (hash bucket -> candidate handles),
  /// retained so rebuilds re-intern against the existing dictionary.
  std::unordered_map<std::uint64_t, std::vector<sanitize::PathHandle>> interned_;
  /// Interns one path: the existing handle for an equal hop sequence,
  /// else a fresh one appended to the arena.
  sanitize::PathHandle intern(std::span<const bgp::Asn> hops);
  /// Compacts the dictionary when it holds more than twice the live
  /// rows' hops (re-interning every row of `paths`); true if it did.
  bool compact_if_sparse(std::span<const sanitize::SanitizedPath> paths);
  /// Phase 2 of every build: re-forms the shard list from rows_of_.
  /// Shards of countries outside `touched` (nullptr = none is exempt)
  /// move over as they are; the rest keep their old shard when the
  /// digest and row count match, else are gathered afresh. With
  /// `reuse_old` false every shard is gathered (handles changed).
  RebuildStats regather(
      std::span<const sanitize::SanitizedPath> paths, std::size_t threads,
      const std::unordered_set<geo::CountryCode, geo::CountryCodeHash>* touched,
      bool reuse_old);

  /// Per-row handles and per-country row lists of the LAST rebuild,
  /// cached so a rebuild with a proven unchanged head (see rebuild())
  /// or a patch() can skip re-deriving them for unchanged rows.
  std::vector<sanitize::PathHandle> handles_;
  /// Hops the live rows reference (sum of handles_ lengths): the
  /// compaction rule's yardstick.
  std::size_t live_hops_ = 0;
  std::unordered_map<geo::CountryCode, std::vector<std::uint32_t>,
                     geo::CountryCodeHash>
      rows_of_;
  /// Sorted by country code; parallel to shard_countries_.
  std::vector<PathShard> shards_;
  std::vector<geo::CountryCode> shard_countries_;
  std::vector<geo::CountryCode> prefix_countries_;
  std::vector<geo::CountryCode> vp_countries_;
  std::size_t size_ = 0;
  std::size_t unique_paths_ = 0;
};

}  // namespace georank::core
