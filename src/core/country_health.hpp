// CountryHealth: one country's observational evidence and the tiers it
// earns under a DegradationPolicy.
//
// The record itself lives in core because core::Pipeline memoizes one
// per country shard (incremental republish re-scores only dirty shards);
// the machinery that COMPUTES full reports — robust::compute_health and
// the fault-injection harness — stays above core in robust/. Like
// core/confidence.hpp this header re-exports the name into
// georank::robust, where the rest of the tree spells it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/confidence.hpp"
#include "geo/country.hpp"

namespace georank::core {

/// One country's observational evidence and the tiers it earns.
struct CountryHealth {
  geo::CountryCode country;
  /// Distinct VPs in the national / international view of this country.
  std::size_t national_vps = 0;
  std::size_t international_vps = 0;
  /// Distinct accepted prefixes geolocated to this country, and their
  /// effective (most-specific) address weight.
  std::size_t accepted_prefixes = 0;
  std::uint64_t geolocated_addresses = 0;
  /// No-consensus rejections whose plurality country was this one — the
  /// address space this country "almost" had.
  std::size_t no_consensus_prefixes = 0;
  std::uint64_t no_consensus_addresses = 0;

  ConfidenceTier national_tier = ConfidenceTier::kInsufficient;
  ConfidenceTier international_tier = ConfidenceTier::kInsufficient;
  ConfidenceTier geo_tier = ConfidenceTier::kInsufficient;
  ConfidenceTier overall = ConfidenceTier::kInsufficient;

  /// Address-weighted consensus share in [0,1] (1.0 when unchallenged).
  [[nodiscard]] double geo_consensus() const noexcept {
    return DegradationPolicy::geo_consensus_share(geolocated_addresses,
                                                  no_consensus_addresses);
  }
};

class PathShard;

/// One country's health: VP coverage and distinct accepted prefixes
/// (with their address weight) from the rows of `shard` whose prefix
/// geolocates there (nullptr = no such rows), the no-consensus
/// rejections attributed to it, and the tiers all of that earns under
/// `policy`. The one worker behind robust::compute_health and
/// Pipeline::country_health.
[[nodiscard]] CountryHealth shard_health(geo::CountryCode country,
                                         const PathShard* shard,
                                         std::size_t no_consensus_prefixes,
                                         std::uint64_t no_consensus_addresses,
                                         const DegradationPolicy& policy);

}  // namespace georank::core

namespace georank::robust {
using core::CountryHealth;
}  // namespace georank::robust
