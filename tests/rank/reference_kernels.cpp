#include "reference_kernels.hpp"

#include <vector>

#include "bgp/route.hpp"

namespace georank::rank::reference {

namespace {

/// Index of the first hop of the maximal all-p2c suffix: the suffix
/// begins after the LAST link that is not provider->customer.
std::size_t suffix_start(const topo::AsGraph& g, bgp::AsPathView path) {
  std::size_t start = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    auto rel = g.relationship(path[i], path[i + 1]);
    if (!rel || *rel != topo::Rel::kCustomer) start = i + 1;
  }
  return start;
}

}  // namespace

ConeResult customer_cone(const topo::AsGraph& relationships,
                         sanitize::PathsView paths) {
  ConeResult result;
  for (const sanitize::PathRecord sp : paths) {
    auto [it, inserted] = result.prefix_weight.try_emplace(sp.prefix, sp.weight);
    if (inserted) result.total_weight += sp.weight;

    const bgp::AsPathView path = sp.path;
    if (path.empty()) continue;
    result.originated[path[path.size() - 1]].insert(sp.prefix);

    std::size_t start = suffix_start(relationships, path);
    for (std::size_t i = start; i < path.size(); ++i) {
      auto& cone = result.as_cone[path[i]];
      for (std::size_t j = i; j < path.size(); ++j) cone.insert(path[j]);
    }
    // Every AS seen on any path exists in the result, cone >= {self}.
    for (std::size_t i = 0; i < path.size(); ++i) {
      result.as_cone[path[i]].insert(path[i]);
    }
  }
  return result;
}

std::size_t ConeResult::cone_size(Asn asn) const {
  auto it = as_cone.find(asn);
  return it == as_cone.end() ? 0 : it->second.size();
}

std::unordered_set<bgp::Prefix, bgp::PrefixHash> ConeResult::prefix_cone_of(
    Asn asn) const {
  std::unordered_set<bgp::Prefix, bgp::PrefixHash> out;
  auto it = as_cone.find(asn);
  if (it == as_cone.end()) return out;
  for (Asn member : it->second) {
    auto origin = originated.find(member);
    if (origin == originated.end()) continue;
    out.insert(origin->second.begin(), origin->second.end());
  }
  return out;
}

std::uint64_t ConeResult::cone_addresses(Asn asn) const {
  auto it = as_cone.find(asn);
  if (it == as_cone.end()) return 0;
  std::uint64_t total = 0;
  // MOAS prefixes (several origins announcing the same prefix) must not
  // double count.
  std::unordered_set<bgp::Prefix, bgp::PrefixHash> seen;
  for (Asn member : it->second) {
    auto origin = originated.find(member);
    if (origin == originated.end()) continue;
    for (const bgp::Prefix& p : origin->second) {
      if (!seen.insert(p).second) continue;
      auto w = prefix_weight.find(p);
      if (w != prefix_weight.end()) total += w->second;
    }
  }
  return total;
}

Ranking ConeResult::by_addresses() const {
  std::vector<ScoredAs> scores;
  double denom = total_weight ? static_cast<double>(total_weight) : 1.0;
  for (const auto& [asn, _] : as_cone) {
    scores.push_back(ScoredAs{asn, static_cast<double>(cone_addresses(asn)) / denom});
  }
  return Ranking::from_scores(std::move(scores));
}

Ranking ConeResult::by_as_count() const {
  std::vector<ScoredAs> scores;
  for (const auto& [asn, cone] : as_cone) {
    scores.push_back(ScoredAs{asn, static_cast<double>(cone.size())});
  }
  return Ranking::from_scores(std::move(scores));
}

HegemonyResult hegemony(sanitize::PathsView paths, HegemonyOptions options) {
  struct VpAccumulator {
    double total = 0.0;
    std::unordered_map<Asn, double> per_as;
  };
  std::unordered_map<bgp::VpId, VpAccumulator, bgp::VpIdHash> vps;

  for (const sanitize::PathRecord sp : paths) {
    VpAccumulator& acc = vps[sp.vp];
    double w = options.weight_by_addresses ? static_cast<double>(sp.weight) : 1.0;
    acc.total += w;
    auto hops = sp.path.hops();
    std::size_t begin = options.exclude_vp_as && hops.size() > 1 ? 1 : 0;
    for (std::size_t i = begin; i < hops.size(); ++i) acc.per_as[hops[i]] += w;
  }

  HegemonyResult result;
  result.vp_count = vps.size();
  if (vps.empty()) return result;

  // The order each score vector is filled in is washed out by the sort
  // inside trimmed_average.
  std::unordered_map<Asn, std::vector<double>> per_as_scores;
  for (const auto& [vp, acc] : vps) {
    if (acc.total <= 0.0) continue;
    for (const auto& [asn, mass] : acc.per_as) {
      per_as_scores[asn].push_back(mass / acc.total);
    }
  }
  const Hegemony trimmer{options};
  for (auto& [asn, scores] : per_as_scores) {
    result.scores[asn] = trimmer.trimmed_average(std::move(scores), result.vp_count);
  }
  return result;
}

Ranking HegemonyResult::ranking() const {
  std::vector<ScoredAs> scored;
  for (const auto& [asn, score] : scores) scored.push_back(ScoredAs{asn, score});
  return Ranking::from_scores(std::move(scored));
}

}  // namespace georank::rank::reference
