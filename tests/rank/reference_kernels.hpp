// The hash-map customer-cone and hegemony kernels, kept as the oracle of
// the dense-id kernels in src/rank.
//
// These are the straightforward formulations of §1.1 and §1.2: one
// node-based set per cone, one map per VP. They are slow and obviously
// right, which is what an oracle should be. RankKernels.* runs both
// forms on the same inputs and demands the same ASN order and
// bit-identical scores; nothing outside tests/ calls these.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "bgp/prefix.hpp"
#include "rank/hegemony.hpp"
#include "rank/ranking.hpp"
#include "sanitize/path_view.hpp"
#include "topo/as_graph.hpp"

namespace georank::rank::reference {

struct ConeResult {
  /// AS-level cones: asn -> ASes observed downstream (incl. self).
  std::unordered_map<Asn, std::unordered_set<Asn>> as_cone;
  /// Observed originations: origin asn -> its announced prefixes.
  std::unordered_map<Asn, std::unordered_set<bgp::Prefix, bgp::PrefixHash>> originated;
  /// Effective address weight of every prefix (first row seen wins).
  std::unordered_map<bgp::Prefix, std::uint64_t, bgp::PrefixHash> prefix_weight;
  /// Sum of all prefix weights (the CC denominator).
  std::uint64_t total_weight = 0;

  [[nodiscard]] std::size_t cone_size(Asn asn) const;
  [[nodiscard]] std::unordered_set<bgp::Prefix, bgp::PrefixHash> prefix_cone_of(
      Asn asn) const;
  [[nodiscard]] std::uint64_t cone_addresses(Asn asn) const;
  [[nodiscard]] Ranking by_addresses() const;
  [[nodiscard]] Ranking by_as_count() const;
};

[[nodiscard]] ConeResult customer_cone(const topo::AsGraph& relationships,
                                       sanitize::PathsView paths);

struct HegemonyResult {
  std::unordered_map<Asn, double> scores;
  std::size_t vp_count = 0;

  [[nodiscard]] Ranking ranking() const;
};

[[nodiscard]] HegemonyResult hegemony(sanitize::PathsView paths,
                                      HegemonyOptions options = {});

}  // namespace georank::rank::reference
