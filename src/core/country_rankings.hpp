// The paper's four country-specific metrics (§3):
//
//   CCI — Customer Cone International: address share of a country's space
//         in each AS's prefix cone, from OUT-of-country VPs;
//   CCN — Customer Cone National: same, from IN-country VPs;
//   AHI — AS Hegemony International: share of paths from out-of-country
//         VPs to the country's address space traversing each AS;
//   AHN — AS Hegemony National: same, for in-country VPs.
#pragma once

#include <span>

#include "core/confidence.hpp"
#include "core/views.hpp"
#include "rank/customer_cone.hpp"
#include "rank/hegemony.hpp"
#include "rank/ranking.hpp"
#include "topo/as_graph.hpp"

namespace georank::core {

class ShardedPathStore;

struct CountryMetrics {
  geo::CountryCode country;
  rank::Ranking cci, ccn, ahi, ahn;
  std::size_t national_vps = 0;
  std::size_t international_vps = 0;
  std::uint64_t national_addresses = 0;
  std::uint64_t international_addresses = 0;
  /// Evidence tier per the pipeline's DegradationPolicy. Only
  /// Pipeline queries annotate it; CountryRankings::compute leaves the
  /// defaults (it sees one view at a time, not the evidence record).
  /// Countries with insufficient evidence keep their (possibly empty)
  /// rankings — results are flagged, never fabricated.
  ConfidenceTier confidence = ConfidenceTier::kHigh;
  /// Address-weighted geolocation consensus share in [0,1].
  double geo_consensus = 1.0;
};

/// Extension beyond the paper (§7 sketches it as future work): the
/// OUTBOUND counterparts — which ASes a country's own networks cross to
/// reach foreign address space.
struct OutboundMetrics {
  geo::CountryCode country;
  rank::Ranking cco;  // customer cone over outbound paths
  rank::Ranking aho;  // hegemony over outbound paths
  std::size_t vps = 0;
  std::uint64_t foreign_addresses = 0;
};

class CountryRankings {
 public:
  /// `relationships` is the graph used to label path links for the cone
  /// metrics (ground truth or inferred).
  explicit CountryRankings(const topo::AsGraph& relationships,
                           rank::HegemonyOptions hegemony = {})
      : relationships_(&relationships), hegemony_(hegemony) {}

  [[nodiscard]] CountryMetrics compute(
      std::span<const sanitize::SanitizedPath> all_paths,
      geo::CountryCode country) const;

  [[nodiscard]] OutboundMetrics compute_outbound(
      std::span<const sanitize::SanitizedPath> all_paths,
      geo::CountryCode country) const;

  /// Shard-backed equivalents: the kernels run over ONE country's shard
  /// (borrowed columns, borrowed precomputed index lists — nothing is
  /// gathered or copied at all). Bit-identical to the span overloads
  /// above, the reference oracle: shard rows keep global path order.
  [[nodiscard]] CountryMetrics compute(const ShardedPathStore& store,
                                       geo::CountryCode country) const;
  [[nodiscard]] OutboundMetrics compute_outbound(const ShardedPathStore& store,
                                                 geo::CountryCode country) const;

  /// One metric on one prebuilt view (the stability analyses drive this).
  [[nodiscard]] rank::Ranking cone_ranking(const CountryView& view) const;
  [[nodiscard]] rank::Ranking hegemony_ranking(const CountryView& view) const;

 private:
  const topo::AsGraph* relationships_;
  rank::HegemonyOptions hegemony_;
};

}  // namespace georank::core
