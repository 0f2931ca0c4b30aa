// Shared internals of the batch and incremental sanitizers.
//
// PathSanitizer::run and IncrementalSanitizer::run_full are one function
// (run_collection), and every run drives the SAME per-entry decision
// (classify) and per-day loop (filter_day) over the SAME global state
// (stability counts, clique, prefix geolocation, covered set, dedup),
// so the incremental sanitizer's delta path, which re-decides only the
// changed entries, produces rows identical to a from-scratch batch run
// by construction — the bit-identity invariant the live pipeline publishes
// under. Nothing here is part of the public sanitize API.
//
// Dedup identity. An accepted entry is kept once per distinct (VP,
// prefix, cleaned path). The cleaned path enters the key as its id in a
// PathInterner (sanitize/path_view.hpp), which compares content exactly,
// so two keys are equal iff their hop sequences are; an AS_SET entry is
// rejected before dedup, so no mark beside the hops can tell two paths
// apart. The key is trivially copyable, and the set is a flat
// open-addressing table, so dedup allocates nothing per entry. The ids are only
// meaningful against the interner that issued them: a DedupSet and its
// PathInterner always travel together (FilterState, and the incremental
// sanitizer's memo).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/route.hpp"
#include "geo/prefix_geolocator.hpp"
#include "geo/vp_geolocator.hpp"
#include "sanitize/asn_registry.hpp"
#include "sanitize/path_sanitizer.hpp"
#include "sanitize/path_view.hpp"

namespace georank::sanitize::detail {

/// Dedup identity of an accepted entry: distinct (VP, prefix, cleaned
/// path), the path named by its PathInterner id. First occurrence wins;
/// later ones count as duplicates_merged.
struct DedupKey {
  bgp::VpId vp;
  bgp::Prefix prefix;
  std::uint32_t path = 0;
  bool operator==(const DedupKey&) const = default;
};

/// Set of DedupKeys: open addressing with linear probing over one flat
/// table kept at most half full (live keys plus tombstones), so neither
/// a lookup nor an insert allocates. Erase leaves a tombstone, because
/// the incremental sanitizer's commit_delta erases keys; an insert that
/// would pass the load limit rebuilds the table, dropping the
/// tombstones.
class DedupSet {
 public:
  /// Sizes the table for `keys` keys at a load factor of one half.
  void reserve(std::size_t keys);
  /// True when `key` was not in the set (it is now).
  bool insert(const DedupKey& key);
  [[nodiscard]] bool contains(const DedupKey& key) const noexcept;
  /// True when `key` was in the set (it is not now).
  bool erase(const DedupKey& key) noexcept;

  /// Calls `f(key)` for every key, in table order.
  template <typename F>
  void for_each(F&& f) const {
    for (const DedupKey& slot : slots_) {
      if (slot.path < kTombstone) f(slot);
    }
  }

 private:
  // Slot states ride in the path id, which is a dense interner id and
  // never reaches these values.
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::uint32_t kTombstone = kEmpty - 1;

  /// Slot of `key`, or of the empty slot ending its probe sequence.
  [[nodiscard]] std::size_t probe(const DedupKey& key) const noexcept;
  void rehash(std::size_t slots);

  std::vector<DedupKey> slots_;
  std::size_t size_ = 0;  // live keys
  std::size_t used_ = 0;  // live keys + tombstones
};

/// How many distinct dump days each prefix appears in. `last_day`
/// collapses repeats within one day (and adjacent snapshots sharing a
/// day number) without keeping a per-prefix day set. `day_entries`
/// counts the entries carrying the prefix on `last_day`, so after the
/// final day it tells whether withdrawing one route removes the prefix
/// from that day (the delta path's stability check).
struct PrefixDays {
  std::uint32_t count = 0;
  int last_day = 0;
  std::uint32_t day_entries = 0;
};

using DayCounts = std::unordered_map<bgp::Prefix, PrefixDays, bgp::PrefixHash>;

/// Folds one day's entries into `counts`. Days must be fed in collection
/// order; a repeated day number only counts once if its snapshots are
/// adjacent (replay_to_collection and the generators emit strictly
/// increasing day numbers, so this holds for every producer in-tree).
inline void add_day_presence(DayCounts& counts, const bgp::RibSnapshot& snap) {
  for (const bgp::RouteEntry& e : snap.entries) {
    auto [it, inserted] = counts.try_emplace(e.prefix, PrefixDays{0, snap.day, 0});
    if (inserted || it->second.last_day != snap.day ||
        it->second.count == 0) {
      it->second.last_day = snap.day;
      ++it->second.count;
      it->second.day_entries = 0;
    }
    ++it->second.day_entries;
  }
}

/// The paper's stability rule: present in `stability_days` snapshots,
/// or in all of them when the option is 0.
[[nodiscard]] inline std::size_t stability_need(const SanitizerOptions& options,
                                                std::size_t day_count) {
  return options.stability_days ? options.stability_days : day_count;
}

using CoveredSet = std::unordered_set<bgp::Prefix, bgp::PrefixHash>;

/// Everything the per-entry filter loop reads but never writes.
struct FilterWorld {
  const DayCounts* day_counts = nullptr;
  std::size_t need = 0;
  std::span<const bgp::Asn> clique;
  const geo::PrefixGeoResult* prefix_geo = nullptr;
  const CoveredSet* covered = nullptr;
};

/// Sequential filter state threaded across days: the dedup set, the
/// interner its path ids come from, and the per-category sample budget.
/// The incremental sanitizer's memo keeps it as the last day left it.
struct FilterState {
  PathInterner paths;
  DedupSet dedup;
  std::array<std::size_t, 9> sample_counts{};
};

/// One entry's filter decision: the first rule it fails (kAccepted when
/// it passes all of them) and, for an accepted entry, the countries of
/// its VP and prefix.
struct Verdict {
  FilterReason reason = FilterReason::kAccepted;
  geo::CountryCode vp_country;
  geo::CountryCode prefix_country;
};

/// The paper's per-entry filter precedence (path_sanitizer.hpp), as a
/// pure function of the entry and the world. For an accepted entry it
/// also writes the cleaned path into `cleaned` (overwritten): route
/// servers stripped and prepending collapsed in one pass. The cleaned
/// path may be empty (every hop was a route server); such an entry is
/// accepted but emits no row.
[[nodiscard]] Verdict classify(const bgp::VpId& vp, const bgp::Prefix& prefix,
                               const bgp::AsPath& path, const FilterWorld& world,
                               const geo::VpGeolocator& vps,
                               const AsnRegistry& registry,
                               const SanitizerOptions& options,
                               std::vector<bgp::Asn>& cleaned);

/// The SanitizeStats counter that `reason` increments (kAccepted ->
/// accepted).
[[nodiscard]] std::size_t& counter(SanitizeStats& stats,
                                   FilterReason reason) noexcept;

/// classify, then dedup, then emit, over one day's entries (or any slice
/// of them), appending accepted rows, stats and audit samples to
/// `result`. An accepted entry allocates only its emitted row.
void filter_day(int day, std::span<const bgp::RouteEntry> entries,
                const FilterWorld& world, const geo::VpGeolocator& vps,
                const AsnRegistry& registry, const SanitizerOptions& options,
                FilterState& state, SanitizeResult& result);

/// What a full run leaves beside its result, for the incremental
/// sanitizer's memo: where the final day's rows begin and the global
/// state after the last day.
struct RunCapture {
  std::size_t head_rows = 0;  // rows emitted for days [0, N-1)
  DayCounts counts;           // day presence over all N days
  std::size_t need = 0;
  CoveredSet covered;
  FilterState state;  // after the final day
};

/// The whole sanitizer over a collection (PathSanitizer::run): stability
/// counts, the clique (explicit or inferred), prefix geolocation, the
/// covered set and the per-day filter loop. With `capture` it also
/// fills the memo above; `capture` must be null on an empty collection.
[[nodiscard]] SanitizeResult run_collection(
    const bgp::RibCollection& ribs, const geo::GeoDatabase& geo_db,
    const geo::VpGeolocator& vps, const AsnRegistry& registry,
    const SanitizerOptions& options, RunCapture* capture = nullptr);

}  // namespace georank::sanitize::detail
