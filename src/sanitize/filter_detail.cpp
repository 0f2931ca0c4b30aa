#include "sanitize/filter_detail.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "infer/clique.hpp"
#include "infer/transit_degree.hpp"

namespace georank::sanitize::detail {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t hash_key(const DedupKey& k) noexcept {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(k.vp.ip) << 32) | k.vp.asn);
  h = mix64(h ^ ((static_cast<std::uint64_t>(k.prefix.address()) << 8) |
                 k.prefix.length()));
  return mix64(h ^ k.path);
}

/// First probe position of a hash in a table of `slots` entries.
std::size_t home(std::uint64_t hash, std::size_t slots) noexcept {
  return static_cast<std::size_t>(((hash >> 32) * slots) >> 32);
}

}  // namespace

void DedupSet::reserve(std::size_t keys) {
  if (2 * keys > slots_.size()) rehash(2 * keys);
}

std::size_t DedupSet::probe(const DedupKey& key) const noexcept {
  const std::size_t n = slots_.size();
  std::size_t i = home(hash_key(key), n);
  while (slots_[i].path != kEmpty && !(slots_[i] == key)) {
    i = i + 1 == n ? 0 : i + 1;
  }
  return i;
}

bool DedupSet::insert(const DedupKey& key) {
  if (2 * (used_ + 1) > slots_.size()) {
    // Mostly tombstones: rebuild at the same size; else double.
    const bool crowded = 4 * (size_ + 1) > slots_.size();
    rehash(std::max<std::size_t>(16, crowded ? 2 * slots_.size() : slots_.size()));
  }
  // The key's probe sequence passes any tombstone before the empty slot
  // ending it; the first tombstone is reused.
  const std::size_t n = slots_.size();
  std::size_t i = home(hash_key(key), n);
  std::size_t tomb = n;
  for (; slots_[i].path != kEmpty; i = i + 1 == n ? 0 : i + 1) {
    if (slots_[i] == key) return false;
    if (slots_[i].path == kTombstone && tomb == n) tomb = i;
  }
  if (tomb != n) {
    i = tomb;
  } else {
    ++used_;
  }
  slots_[i] = key;
  ++size_;
  return true;
}

bool DedupSet::contains(const DedupKey& key) const noexcept {
  return !slots_.empty() && slots_[probe(key)].path != kEmpty;
}

bool DedupSet::erase(const DedupKey& key) noexcept {
  if (slots_.empty()) return false;
  DedupKey& slot = slots_[probe(key)];
  if (slot.path == kEmpty) return false;
  slot.path = kTombstone;
  --size_;
  return true;
}

void DedupSet::rehash(std::size_t slots) {
  std::vector<DedupKey> old = std::move(slots_);
  slots_.assign(slots, DedupKey{{}, {}, kEmpty});
  used_ = size_;
  for (const DedupKey& key : old) {
    if (key.path >= kTombstone) continue;
    std::size_t i = home(hash_key(key), slots);
    while (slots_[i].path != kEmpty) i = i + 1 == slots ? 0 : i + 1;
    slots_[i] = key;
  }
}

std::size_t& counter(SanitizeStats& stats, FilterReason reason) noexcept {
  switch (reason) {
    case FilterReason::kUnstable: return stats.unstable;
    case FilterReason::kUnallocated: return stats.unallocated;
    case FilterReason::kLoop: return stats.loop;
    case FilterReason::kPoisoned: return stats.poisoned;
    case FilterReason::kVpNoLocation: return stats.vp_no_location;
    case FilterReason::kCoveredPrefix: return stats.covered_prefix;
    case FilterReason::kPrefixNoLocation: return stats.prefix_no_location;
    case FilterReason::kAsSet: return stats.as_set;
    case FilterReason::kAccepted: break;
  }
  return stats.accepted;
}

Verdict classify(const bgp::VpId& vp, const bgp::Prefix& prefix,
                 const bgp::AsPath& path, const FilterWorld& world,
                 const geo::VpGeolocator& vps, const AsnRegistry& registry,
                 const SanitizerOptions& options, std::vector<bgp::Asn>& cleaned) {
  Verdict v;
  if (world.day_counts->at(prefix).count < world.need) {
    v.reason = FilterReason::kUnstable;
    return v;
  }
  // The parser flattens AS_SETs to keep the line; the true origin is
  // ambiguous, so the entry is rejected here (first match wins, before
  // the flattened members can read as loops or unallocated).
  if (path.has_as_set()) {
    v.reason = FilterReason::kAsSet;
    return v;
  }
  if (!registry.all_allocated(path)) {
    v.reason = FilterReason::kUnallocated;
    return v;
  }
  if (path.has_nonadjacent_duplicate()) {
    v.reason = FilterReason::kLoop;
    return v;
  }
  if (is_poisoned(path, world.clique)) {
    v.reason = FilterReason::kPoisoned;
    return v;
  }
  const std::optional<geo::CountryCode> vp_country = vps.locate(vp);
  if (!vp_country) {
    v.reason = FilterReason::kVpNoLocation;
    return v;
  }
  if (world.covered->contains(prefix)) {
    v.reason = FilterReason::kCoveredPrefix;
    return v;
  }
  v.prefix_country = world.prefix_geo->country_of(prefix);
  if (!v.prefix_country.valid()) {
    v.reason = FilterReason::kPrefixNoLocation;
    return v;
  }
  v.vp_country = *vp_country;

  // ---- Cleaning, one pass: strip route servers, collapse prepending. ----
  const std::span<const bgp::Asn> servers = options.route_server_asns;
  cleaned.clear();
  for (bgp::Asn hop : path.hops()) {
    if (std::find(servers.begin(), servers.end(), hop) != servers.end()) continue;
    if (cleaned.empty() || cleaned.back() != hop) cleaned.push_back(hop);
  }
  return v;
}

void filter_day(int day, std::span<const bgp::RouteEntry> entries,
                const FilterWorld& world, const geo::VpGeolocator& vps,
                const AsnRegistry& registry, const SanitizerOptions& options,
                FilterState& state, SanitizeResult& result) {
  SanitizeStats& stats = result.stats;
  std::vector<bgp::Asn> cleaned;
  for (const bgp::RouteEntry& e : entries) {
    ++stats.total;
    const Verdict v =
        classify(e.vp, e.prefix, e.path, world, vps, registry, options, cleaned);
    ++counter(stats, v.reason);
    if (v.reason != FilterReason::kAccepted) {
      const auto idx = static_cast<std::size_t>(v.reason);
      if (state.sample_counts[idx] < options.samples_per_category) {
        ++state.sample_counts[idx];
        result.samples.push_back(RejectedSample{v.reason, e, day});
      }
      continue;
    }
    if (cleaned.empty()) continue;
    if (!state.dedup.insert(DedupKey{e.vp, e.prefix, state.paths.intern(cleaned)})) {
      ++stats.duplicates_merged;
      continue;
    }
    result.paths.push_back(SanitizedPath{
        e.vp, v.vp_country, e.prefix, v.prefix_country,
        world.prefix_geo->weight_of(e.prefix),
        bgp::AsPath{std::vector<bgp::Asn>(cleaned.begin(), cleaned.end())}});
  }
}

SanitizeResult run_collection(const bgp::RibCollection& ribs,
                              const geo::GeoDatabase& geo_db,
                              const geo::VpGeolocator& vps,
                              const AsnRegistry& registry,
                              const SanitizerOptions& options,
                              RunCapture* capture) {
  SanitizeResult result;
  const std::size_t n = ribs.days.size();

  // ---- Stability: a prefix must appear in all snapshots (§3.1). ----
  DayCounts counts;
  for (const bgp::RibSnapshot& snap : ribs.days) add_day_presence(counts, snap);
  const std::size_t need = stability_need(options, n);
  auto stable = [&](const bgp::Prefix& p) { return counts.at(p).count >= need; };

  // ---- Clique (for the poisoning filter): explicit or inferred from the
  // stable, loop-free paths. ----
  std::vector<bgp::Asn> clique = options.clique;
  if (clique.empty()) {
    infer::TransitDegree degrees;
    infer::ObservedAdjacency adjacency;
    for (const bgp::RibSnapshot& snap : ribs.days) {
      for (const bgp::RouteEntry& e : snap.entries) {
        if (!stable(e.prefix)) continue;
        if (e.path.has_as_set()) continue;  // ambiguous hops; excluded below too
        if (e.path.has_nonadjacent_duplicate()) continue;
        bgp::AsPath collapsed = e.path.without_adjacent_duplicates();
        degrees.add_path(collapsed);
        adjacency.add_path(collapsed);
      }
    }
    clique = infer::infer_clique(degrees, adjacency);
  }
  result.clique = clique;

  // ---- Prefix geolocation over the stable announced set. ----
  std::vector<bgp::Prefix> announced;
  announced.reserve(counts.size());
  for (const auto& [p, days] : counts) {
    if (days.count >= need) announced.push_back(p);
  }
  geo::PrefixGeolocator geolocator{geo_db, options.geo_threshold};
  result.prefix_geo = geolocator.run(announced);
  CoveredSet covered(result.prefix_geo.covered.begin(),
                     result.prefix_geo.covered.end());

  // ---- Per-entry filtering, in the paper's precedence order. Rows and
  // dedup keys number at most the entries; a day repeats most of the
  // day before it, so the largest day sizes them. ----
  std::size_t largest_day = 0;
  for (const bgp::RibSnapshot& snap : ribs.days) {
    largest_day = std::max(largest_day, snap.entries.size());
  }
  result.paths.reserve(largest_day);
  FilterState state;
  state.dedup.reserve(largest_day);
  const FilterWorld world{&counts, need, clique, &result.prefix_geo, &covered};
  for (std::size_t i = 0; i < n; ++i) {
    if (capture && i + 1 == n) capture->head_rows = result.paths.size();
    filter_day(ribs.days[i].day, ribs.days[i].entries, world, vps, registry,
               options, state, result);
  }

  if (capture) {
    capture->counts = std::move(counts);
    capture->need = need;
    capture->covered = std::move(covered);
    capture->state = std::move(state);
  }
  return result;
}

}  // namespace georank::sanitize::detail
