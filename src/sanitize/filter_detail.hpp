// Shared internals of the batch and incremental sanitizers.
//
// PathSanitizer::run and IncrementalSanitizer both drive the SAME
// per-day filter loop (filter_day) over the SAME global state
// (stability counts, clique, prefix geolocation, covered set, dedup),
// so an incremental run that re-filters only the changed suffix of the
// collection produces rows identical to a from-scratch batch run by
// construction — the bit-identity invariant the live pipeline publishes
// under. Nothing here is part of the public sanitize API.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bgp/route.hpp"
#include "geo/prefix_geolocator.hpp"
#include "geo/vp_geolocator.hpp"
#include "sanitize/asn_registry.hpp"
#include "sanitize/path_sanitizer.hpp"

namespace georank::sanitize::detail {

/// Dedup identity of an accepted entry: distinct (VP, prefix, cleaned
/// path). First occurrence wins; later ones count as duplicates_merged.
struct DedupKey {
  bgp::VpId vp;
  bgp::Prefix prefix;
  std::string path;
  bool operator==(const DedupKey&) const = default;
};

struct DedupHash {
  std::size_t operator()(const DedupKey& k) const noexcept {
    std::size_t h = bgp::VpIdHash{}(k.vp);
    h ^= bgp::PrefixHash{}(k.prefix) + 0x9e3779b9u + (h << 6) + (h >> 2);
    h ^= std::hash<std::string>{}(k.path) + 0x9e3779b9u + (h << 6) + (h >> 2);
    return h;
  }
};

using DedupSet = std::unordered_set<DedupKey, DedupHash>;

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

/// Everything the per-entry filter loop reads but never writes.
struct FilterWorld {
  const DayCounts* day_counts = nullptr;
  std::size_t need = 0;
  std::span<const bgp::Asn> clique;
  const geo::PrefixGeoResult* prefix_geo = nullptr;
  const std::unordered_set<bgp::Prefix, bgp::PrefixHash>* covered = nullptr;
};

/// Sequential filter state threaded across days: the dedup set and the
/// per-category sample budget. Capturing this at a day boundary is what
/// lets the incremental sanitizer resume mid-collection.
struct FilterState {
  DedupSet dedup;
  std::array<std::size_t, 9> sample_counts{};
};

/// Runs the paper's per-entry filter precedence over one day's entries
/// (or any contiguous slice of them — the loop is sequential, so a
/// suffix of a day can be filtered on its own by resuming `state`),
/// appending accepted rows, stats and audit samples to `result`.
void filter_day(int day, std::span<const bgp::RouteEntry> entries,
                const FilterWorld& world, const geo::VpGeolocator& vps,
                const AsnRegistry& registry, const SanitizerOptions& options,
                FilterState& state, SanitizeResult& result);

/// Seed for fold_entries when starting a fresh fold.
inline constexpr std::uint64_t kFoldSeed = 1469598103934665603ull;

/// Sequential, order-sensitive content fold over raw entries, resumable:
/// fold_entries(fold_entries(kFoldSeed, a), b) == fold_entries(kFoldSeed,
/// a+b). This prefix property is what detects an append-only final day.
[[nodiscard]] std::uint64_t fold_entries(std::uint64_t h,
                                         std::span<const bgp::RouteEntry> entries);

/// Content digest of one day's raw entries (order-sensitive: entry order
/// feeds dedup precedence). Used to prove days unchanged between runs.
[[nodiscard]] std::uint64_t day_digest(const bgp::RibSnapshot& snap);

/// Order-independent digest of the stable prefix set under `need`.
[[nodiscard]] std::uint64_t stable_set_digest(const DayCounts& counts,
                                              std::size_t need);

}  // namespace georank::sanitize::detail
