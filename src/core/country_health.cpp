#include "core/country_health.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/path_shard.hpp"

namespace georank::core {

CountryHealth shard_health(geo::CountryCode country, const PathShard* shard,
                           std::size_t no_consensus_prefixes,
                           std::uint64_t no_consensus_addresses,
                           const DegradationPolicy& policy) {
  CountryHealth h;
  h.country = country;
  if (shard != nullptr) {
    // Flat vectors, sorted and deduplicated once, instead of node-based
    // sets: every count is of distinct values, and the address weight
    // sums the weight of each distinct prefix's first row, so the
    // integers come out the same either way. A VP's rows are runs (a
    // day's rows are VP-major), so a VP is pushed once per run.
    const std::span<const std::uint32_t> rows = shard->prefix_rows();
    std::vector<bgp::VpId> national;
    std::vector<bgp::VpId> international;
    std::vector<std::pair<bgp::Prefix, std::uint32_t>> prefixes;  // (prefix, row)
    prefixes.reserve(rows.size());
    for (std::uint32_t row : rows) {
      std::vector<bgp::VpId>& vps =
          shard->vp_country(row) == country ? national : international;
      if (vps.empty() || vps.back() != shard->vp(row)) vps.push_back(shard->vp(row));
      prefixes.emplace_back(shard->prefix(row), row);
    }
    const auto distinct = [](std::vector<bgp::VpId>& vps) {
      std::sort(vps.begin(), vps.end());
      return static_cast<std::size_t>(
          std::unique(vps.begin(), vps.end()) - vps.begin());
    };
    h.national_vps = distinct(national);
    h.international_vps = distinct(international);
    std::sort(prefixes.begin(), prefixes.end());
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      if (i > 0 && prefixes[i].first == prefixes[i - 1].first) continue;
      ++h.accepted_prefixes;
      h.geolocated_addresses += shard->weight(prefixes[i].second);
    }
  }
  h.no_consensus_prefixes = no_consensus_prefixes;
  h.no_consensus_addresses = no_consensus_addresses;
  h.national_tier = policy.view_tier(h.national_vps);
  h.international_tier = policy.view_tier(h.international_vps);
  h.geo_tier = policy.geo_tier(h.geolocated_addresses, h.no_consensus_addresses);
  h.overall = policy.country_tier(h.national_vps, h.international_vps,
                                  h.geolocated_addresses,
                                  h.no_consensus_addresses);
  return h;
}

}  // namespace georank::core
