#include "rank/ahc.hpp"

#include <algorithm>
#include <vector>

namespace georank::rank {

Ranking AhcRanking::compute(sanitize::PathsView all_paths,
                            geo::CountryCode country) const {
  // Origin ASes registered in the target country. Group by BASE index so
  // the per-origin subsets are selections over `all_paths`, not copies.
  std::unordered_map<Asn, std::vector<std::uint32_t>> by_origin;
  for (std::size_t k = 0; k < all_paths.size(); ++k) {
    const sanitize::PathRecord sp = all_paths[k];
    if (sp.path.empty()) continue;
    Asn origin = sp.path.origin();
    auto it = registry_->find(origin);
    if (it == registry_->end() || it->second != country) continue;
    by_origin[origin].push_back(static_cast<std::uint32_t>(all_paths.base_index(k)));
  }
  if (by_origin.empty()) return {};

  // Per-origin hegemony, combined under the configured weighting. The
  // combination is a float accumulation, so iterate origins in sorted
  // order — hash order would make the low bits of `sums` depend on the
  // standard library.
  std::vector<Asn> origins;
  origins.reserve(by_origin.size());
  // lint: ordered(key collection only; sorted before any arithmetic)
  for (const auto& [origin, indices] : by_origin) origins.push_back(origin);
  std::sort(origins.begin(), origins.end());

  Hegemony hegemony{options_};
  std::unordered_map<Asn, double> sums;
  double weight_total = 0.0;
  for (const Asn origin : origins) {
    const std::vector<std::uint32_t>& indices = by_origin.at(origin);
    const sanitize::PathsView paths = all_paths.rebase(indices);
    double weight = 1.0;
    if (weighting_ == AhcWeighting::kByAddresses) {
      std::unordered_map<bgp::Prefix, bool, bgp::PrefixHash> seen;
      std::uint64_t addresses = 0;
      for (const sanitize::PathRecord sp : paths) {
        if (seen.emplace(sp.prefix, true).second) addresses += sp.weight;
      }
      weight = static_cast<double>(addresses);
    }
    if (weight <= 0.0) continue;
    weight_total += weight;
    HegemonyResult h = hegemony.compute(paths);
    for (const ScoredAs& entry : h.scores) sums[entry.asn] += weight * entry.score;
  }
  if (weight_total <= 0.0) return {};
  std::vector<ScoredAs> scored;
  scored.reserve(sums.size());
  // lint: ordered(values are order-independent; from_scores totally orders)
  for (const auto& [asn, sum] : sums) {
    scored.push_back(ScoredAs{asn, sum / weight_total});
  }
  return Ranking::from_scores(std::move(scored));
}

}  // namespace georank::rank
