// AS Hegemony (Fontugne et al. 2017; §1.2 and Figure 2).
//
// For each vantage point v and each AS A:
//
//   score_v(A) = sum of w(p) over v's paths p containing A
//              / sum of w(p) over all of v's paths
//
// where w(p) is the effective address count of the path's prefix. The
// hegemony of A is the mean of {score_v(A)} over VPs after discarding the
// top and bottom trim share of per-VP scores. VPs that do not see A score
// 0 for it — absence is information, not missing data.
//
// Trim rule: the paper's Figure 2 removes one score from each end of a
// 3-VP sample, so we trim max(1, floor(trim*n)) per side whenever n >= 3
// (and nothing below that).
//
// Kernel layout. The VPs and ASes of one call get dense u32 ids
// (util::DenseIndex), and the rows are counting-sorted by VP. One VP at a
// time, path mass accumulates into a flat mass[] array indexed by AS id;
// a touched list resets it for the next VP. The per-VP scores are then
// grouped by AS (CSR) and handed to trimmed_average.
//
// Float order. The counting sort is stable, so every (VP, AS) mass and
// every VP total adds the same doubles in the same order as a single
// pass over the rows would. trimmed_average sorts a score vector before
// summing it, so the order the scores arrive in does not matter either.
// The result is bit-identical to the hash-map formulation (kept under
// tests/rank as the oracle).
#pragma once

#include <span>
#include <vector>

#include "rank/ranking.hpp"
#include "sanitize/path_view.hpp"

namespace georank::rank {

struct HegemonyOptions {
  /// Per-side trim share of VP scores (paper: 0.10).
  double trim = 0.10;
  /// Exclude the VP's own (first-hop) AS from scoring. The bias-trimming
  /// exists exactly because near-VP ASes over-score; the paper keeps them
  /// and lets the trim handle it, so the default is false.
  bool exclude_vp_as = false;
  /// Weight each path by its prefix's effective address count (the
  /// paper's choice, Figure 2). false = plain path-fraction betweenness
  /// (Fontugne et al.'s original unweighted formulation).
  bool weight_by_addresses = true;
};

struct HegemonyResult {
  /// Final hegemony score per AS, in ascending ASN order.
  std::vector<ScoredAs> scores;
  /// Number of VPs that contributed (the trim denominator). A VP whose
  /// paths all weigh 0 still counts.
  std::size_t vp_count = 0;

  [[nodiscard]] Ranking ranking() const;
  /// Score of an AS; 0 if absent.
  [[nodiscard]] double score_of(Asn asn) const;
};

/// IHR-style per-origin ("local graph") hegemony: hegemony computed over
/// only the paths whose ORIGIN is the given AS — which transit networks
/// does this one AS depend on? This is the building block IHR aggregates
/// into its country ranking (AHC, §1.2.1) and publishes per AS.
[[nodiscard]] HegemonyResult per_origin_hegemony(sanitize::PathsView paths,
                                                 Asn origin,
                                                 HegemonyOptions options = {});

class Hegemony {
 public:
  explicit Hegemony(HegemonyOptions options = {}) : options_(options) {}

  /// Accepts any sanitized-path storage form (vector/span of rows, or an
  /// indexed columnar view) via the PathsView adapter — zero-copy.
  [[nodiscard]] HegemonyResult compute(sanitize::PathsView paths) const;

  /// The trim-then-average step on a raw per-VP score vector (scores
  /// >= 0), as if padded with zeros up to `vp_count`. Exposed for tests
  /// (Figure 2 worked example).
  [[nodiscard]] double trimmed_average(std::vector<double> scores,
                                       std::size_t vp_count) const;

 private:
  HegemonyOptions options_;
};

}  // namespace georank::rank
