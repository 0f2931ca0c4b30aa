// Customer cone computation (Luckie et al. 2013; §1.1 and Figure 1).
//
// For each sanitized path (VP first, origin last) we label the links with
// the relationship graph and keep the maximal ALL provider->customer
// suffix. Every AS on that suffix collects the ASes (and the origin's
// prefix) downstream of it into its customer cone. Crucially the cone is
// NOT closed recursively over p2c links: B enters A's cone only if some
// observed path shows B downstream of A (avoids inflating cones through
// complex/partial-transit relationships).
//
// Each AS is a member of its own cone, so its own originated prefixes
// count toward its prefix cone (an access network with no customers still
// "serves" its own address space).
//
// Kernel layout. The ASes and prefixes of one call get dense u32 ids
// (util::DenseIndex, first-seen order), and all state is flat arrays
// indexed by them:
//   * the suffix walk and the (holder, member) expansion run once per
//     DISTINCT stored path. Country views share one interned hop arena,
//     so a path is keyed by its hops' address and length; row-form input
//     has one slice per row and simply dedups nothing. The walk looks up
//     each distinct link's relationship once per call;
//   * the cone is CSR, holder -> sorted, deduplicated member ids;
//   * originations: each prefix keeps its first origin inline, and only
//     MOAS prefixes (announced by more than one origin) are listed per
//     origin. A cone's address total is then the sum of its members'
//     single-origin weights plus its members' MOAS prefixes, each counted
//     once through a per-holder stamp.
// Every score is an integer sum divided once, so the result does not
// depend on the order anything is visited in and is bit-identical to the
// hash-map formulation (kept under tests/rank as the oracle).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/prefix.hpp"
#include "rank/ranking.hpp"
#include "sanitize/path_view.hpp"
#include "topo/as_graph.hpp"
#include "util/dense_index.hpp"

namespace georank::rank {

class ConeResult {
 public:
  /// Sum of all prefix weights (the CC denominator).
  std::uint64_t total_weight = 0;

  /// Number of ASes in `asn`'s cone, itself included (0 if never seen).
  [[nodiscard]] std::size_t cone_size(Asn asn) const;
  /// The ASes in `asn`'s cone, itself included, in ascending order.
  [[nodiscard]] std::vector<Asn> members(Asn asn) const;

  /// The prefix-level cone (§1.1): EVERY prefix announced into BGP by an
  /// AS in the cone — membership is at AS granularity, which is exactly
  /// how partial-transit ("complex") customers inflate provider cones
  /// beyond their observed path share. Sorted, each prefix once.
  [[nodiscard]] std::vector<bgp::Prefix> prefix_cone_of(Asn asn) const;
  /// Address weight of prefix_cone_of(asn); a MOAS prefix counts once.
  [[nodiscard]] std::uint64_t cone_addresses(Asn asn) const;

  /// Ranking by address share of the prefix cone (the paper's CC% values).
  [[nodiscard]] Ranking by_addresses() const;
  /// Ranking by AS-cone size (CAIDA ASRank order; the CCG subscripts).
  [[nodiscard]] Ranking by_as_count() const;

 private:
  friend class CustomerCone;
  static constexpr std::uint32_t kNone = util::DenseIndex<Asn>::kNone;

  [[nodiscard]] std::span<const std::uint32_t> cone_of(std::uint32_t id) const noexcept {
    return {cone_members_.data() + cone_offsets_[id],
            cone_offsets_[id + 1] - cone_offsets_[id]};
  }
  /// Address weight of holder `id`'s cone. `stamp` (one slot per prefix)
  /// must hold no `id`; the MOAS prefixes counted are stamped with it.
  [[nodiscard]] std::uint64_t addresses_of(std::uint32_t id,
                                           std::vector<std::uint32_t>& stamp) const;

  util::DenseIndex<Asn> ases_;                // asn <-> AS id
  std::vector<std::uint32_t> cone_offsets_;   // CSR by holder id (size + 1)
  std::vector<std::uint32_t> cone_members_;   // member ids, sorted per holder
  std::vector<bgp::Prefix> prefixes_;         // by prefix id
  std::vector<std::uint64_t> weight_;         // by prefix id, first row wins
  std::vector<std::uint32_t> first_origin_;   // by prefix id; kNone if none
  std::vector<std::uint64_t> solo_weight_;    // by AS id: its single-origin prefixes
  std::vector<std::uint32_t> moas_offsets_;   // CSR by origin id (size + 1)
  std::vector<std::uint32_t> moas_prefixes_;  // MOAS prefix ids per origin
};

class CustomerCone {
 public:
  /// `relationships` may be ground truth or an inferred graph.
  explicit CustomerCone(const topo::AsGraph& relationships)
      : relationships_(&relationships) {}

  /// Accepts any sanitized-path storage form (vector/span of rows, or an
  /// indexed columnar view) via the PathsView adapter — zero-copy.
  [[nodiscard]] ConeResult compute(sanitize::PathsView paths) const;

  /// Index into `path` of the first hop of the maximal all-p2c suffix
  /// (path.size()-1 when only the origin qualifies). Exposed for tests.
  [[nodiscard]] std::size_t cone_suffix_start(bgp::AsPathView path) const;

 private:
  /// True when `to` is a customer of `from` (walking the link descends).
  [[nodiscard]] bool is_p2c(Asn from, Asn to) const;

  const topo::AsGraph* relationships_;
};

}  // namespace georank::rank
