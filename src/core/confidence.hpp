// Confidence tiers for degraded-data robustness.
//
// The paper is explicit that its rankings are only meaningful with
// sufficient observation: §5's stability analysis derives a minimum VP
// count per view before NDCG stabilizes, and Appendix B's geolocation
// threshold rejects prefixes without a >= 50% address-consensus country.
// A country seen by one vantage point, or whose prefixes mostly fail geo
// consensus, must not be ranked with the same apparent authority as one
// with excellent coverage.
//
// This header is deliberately DEPENDENCY-FREE (header-only, no library):
// core::Pipeline annotates every CountryMetrics with a tier, and the
// robust:: library builds full health reports and fault-injection
// harnesses on top of core, so the tier vocabulary sits in core — the
// lowest module that names it — and every module spells it core::.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace georank::core {

/// Evidence basis of a ranking, worst-first ordered so that
/// worst(a, b) == max(a, b).
enum class ConfidenceTier : std::uint8_t {
  kHigh = 0,      // enough VPs and geo consensus to trust the ordering
  kDegraded = 1,  // usable, but below the paper's guidance; expect churn
  kInsufficient = 2,  // too little evidence; treat scores as unranked
};

[[nodiscard]] constexpr std::string_view to_string(ConfidenceTier tier) noexcept {
  switch (tier) {
    case ConfidenceTier::kHigh: return "high";
    case ConfidenceTier::kDegraded: return "degraded";
    case ConfidenceTier::kInsufficient: return "insufficient";
  }
  return "?";
}

[[nodiscard]] constexpr ConfidenceTier worst(ConfidenceTier a,
                                             ConfidenceTier b) noexcept {
  return a < b ? b : a;
}

/// The thresholds that map raw health evidence onto tiers. Defaults
/// follow the paper: >= 3 VPs per view (§5 stability guidance) and
/// >= 50% address-weighted geo consensus (Appendix B).
struct DegradationPolicy {
  /// Minimum distinct VPs a view needs before its ranking is kHigh.
  std::size_t min_vps = 3;
  /// Minimum share of a country's geo evidence (accepted effective
  /// addresses / (accepted + no-consensus)) before geolocation is kHigh.
  double min_geo_consensus = 0.5;

  /// Tier of one view by its distinct-VP count: 0 VPs means the view
  /// does not exist (kInsufficient); below min_vps is kDegraded.
  [[nodiscard]] constexpr ConfidenceTier view_tier(std::size_t vps) const noexcept {
    if (vps == 0) return ConfidenceTier::kInsufficient;
    if (vps < min_vps) return ConfidenceTier::kDegraded;
    return ConfidenceTier::kHigh;
  }

  /// Tier of a country's geolocation evidence. `accepted` is the
  /// effective address weight that reached consensus; `rejected` the
  /// weight of no-consensus prefixes whose plurality was this country.
  [[nodiscard]] constexpr ConfidenceTier geo_tier(
      std::uint64_t accepted, std::uint64_t rejected) const noexcept {
    if (accepted == 0) return ConfidenceTier::kInsufficient;
    double share = static_cast<double>(accepted) /
                   static_cast<double>(accepted + rejected);
    return share >= min_geo_consensus ? ConfidenceTier::kHigh
                                      : ConfidenceTier::kDegraded;
  }

  /// Share of geo evidence that reached consensus, in [0,1]; 1.0 when
  /// there is no evidence at all (nothing was rejected either).
  [[nodiscard]] static constexpr double geo_consensus_share(
      std::uint64_t accepted, std::uint64_t rejected) noexcept {
    std::uint64_t total = accepted + rejected;
    if (total == 0) return 1.0;
    return static_cast<double>(accepted) / static_cast<double>(total);
  }

  /// Overall tier of a country's metrics. The international view and geo
  /// evidence gate hard (they feed CCI/AHI, the paper's primary
  /// metrics); a weak NATIONAL view cannot make the country
  /// kInsufficient — CCN/AHN merely degrade — because most countries
  /// host no vantage point at all (§3.2, Table 2).
  [[nodiscard]] constexpr ConfidenceTier country_tier(
      std::size_t national_vps, std::size_t international_vps,
      std::uint64_t geo_accepted, std::uint64_t geo_rejected) const noexcept {
    ConfidenceTier tier = worst(view_tier(international_vps),
                                geo_tier(geo_accepted, geo_rejected));
    if (tier == ConfidenceTier::kHigh &&
        view_tier(national_vps) != ConfidenceTier::kHigh) {
      tier = ConfidenceTier::kDegraded;
    }
    return tier;
  }
};

}  // namespace georank::core
