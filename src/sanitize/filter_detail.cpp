#include "sanitize/filter_detail.hpp"

namespace georank::sanitize::detail {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

/// Order-sensitive content fold over raw entries.
std::uint64_t fold_entries(std::uint64_t h,
                           std::span<const bgp::RouteEntry> entries) {
  for (const bgp::RouteEntry& e : entries) {
    fnv_mix(h, e.vp.ip);
    fnv_mix(h, e.vp.asn);
    fnv_mix(h, (static_cast<std::uint64_t>(e.prefix.address()) << 8) |
                   e.prefix.length());
    fnv_mix(h, e.path.size());
    for (bgp::Asn hop : e.path.hops()) fnv_mix(h, hop);
    fnv_mix(h, e.path.has_as_set() ? 1u : 0u);
  }
  return h;
}

}  // namespace

void filter_day(int day, std::span<const bgp::RouteEntry> entries,
                const FilterWorld& world, const geo::VpGeolocator& vps,
                const AsnRegistry& registry, const SanitizerOptions& options,
                FilterState& state, SanitizeResult& result) {
  SanitizeStats& stats = result.stats;
  auto stable = [&](const bgp::Prefix& p) {
    return world.day_counts->at(p).count >= world.need;
  };
  auto sample = [&](FilterReason reason, const bgp::RouteEntry& e) {
    auto idx = static_cast<std::size_t>(reason);
    if (state.sample_counts[idx] >= options.samples_per_category) return;
    ++state.sample_counts[idx];
    result.samples.push_back(RejectedSample{reason, e, day});
  };

  for (const bgp::RouteEntry& e : entries) {
    ++stats.total;
    if (!stable(e.prefix)) {
      ++stats.unstable;
      sample(FilterReason::kUnstable, e);
      continue;
    }
    if (e.path.has_as_set()) {
      // The parser flattens AS_SETs to keep the line; the true origin
      // is ambiguous, so the entry is rejected here (first match wins,
      // before the flattened members can read as loops or unallocated).
      ++stats.as_set;
      sample(FilterReason::kAsSet, e);
      continue;
    }
    if (!registry.all_allocated(e.path)) {
      ++stats.unallocated;
      sample(FilterReason::kUnallocated, e);
      continue;
    }
    if (e.path.has_nonadjacent_duplicate()) {
      ++stats.loop;
      sample(FilterReason::kLoop, e);
      continue;
    }
    if (is_poisoned(e.path, world.clique)) {
      ++stats.poisoned;
      sample(FilterReason::kPoisoned, e);
      continue;
    }
    auto vp_country = vps.locate(e.vp);
    if (!vp_country) {
      ++stats.vp_no_location;
      sample(FilterReason::kVpNoLocation, e);
      continue;
    }
    if (world.covered->contains(e.prefix)) {
      ++stats.covered_prefix;
      sample(FilterReason::kCoveredPrefix, e);
      continue;
    }
    geo::CountryCode prefix_country = world.prefix_geo->country_of(e.prefix);
    if (!prefix_country.valid()) {
      ++stats.prefix_no_location;
      sample(FilterReason::kPrefixNoLocation, e);
      continue;
    }
    ++stats.accepted;

    // ---- Cleaning: strip route servers, collapse prepending. ----
    bgp::AsPath cleaned =
        e.path.without_ases(options.route_server_asns).without_adjacent_duplicates();
    if (cleaned.empty()) continue;

    DedupKey key{e.vp, e.prefix, cleaned.to_string()};
    if (!state.dedup.insert(std::move(key)).second) {
      ++stats.duplicates_merged;
      continue;
    }
    result.paths.push_back(SanitizedPath{
        e.vp, *vp_country, e.prefix, prefix_country,
        world.prefix_geo->weight_of(e.prefix), std::move(cleaned)});
  }
}

std::uint64_t day_digest(const bgp::RibSnapshot& snap) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(snap.day));
  fnv_mix(h, snap.entries.size());
  return fold_entries(h, snap.entries);
}

std::uint64_t stable_set_digest(const DayCounts& counts, std::size_t need) {
  // Commutative fold (sum/xor of per-prefix splitmix) so the digest is
  // independent of hash-map iteration order.
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t n = 0;
  for (const auto& [p, days] : counts) {
    if (days.count < need) continue;
    std::uint64_t x = (static_cast<std::uint64_t>(p.address()) << 8) | p.length();
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    sum += x;
    xr ^= x;
    ++n;
  }
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, n);
  fnv_mix(h, sum);
  fnv_mix(h, xr);
  return h;
}

}  // namespace georank::sanitize::detail
