#include "rank/hegemony.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "bgp/route.hpp"
#include "util/dense_index.hpp"

namespace georank::rank {

double Hegemony::trimmed_average(std::vector<double> scores,
                                 std::size_t vp_count) const {
  if (vp_count == 0) return 0.0;
  if (scores.size() > vp_count) scores.resize(vp_count);
  // VPs that never saw the AS score zero. Every score is >= 0, so those
  // zeros would sort first: skipping them sums the same values in the
  // same order as padding would, without the padding.
  std::sort(scores.begin(), scores.end());
  const std::size_t zeros = vp_count - scores.size();
  std::size_t cut = 0;
  if (vp_count >= 3) {
    cut = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.trim * static_cast<double>(vp_count)));
  }
  if (2 * cut >= vp_count) cut = (vp_count - 1) / 2;
  double sum = 0.0;
  for (std::size_t i = std::max(cut, zeros); i < vp_count - cut; ++i) {
    sum += scores[i - zeros];
  }
  return sum / static_cast<double>(vp_count - 2 * cut);
}

HegemonyResult Hegemony::compute(sanitize::PathsView paths) const {
  constexpr std::uint32_t kNone = util::DenseIndex<Asn>::kNone;
  HegemonyResult result;

  // Dense VP ids, then a stable counting sort of the rows by VP.
  util::DenseIndex<std::uint64_t> vp_ids;
  std::vector<std::uint32_t> row_vp(paths.size());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const bgp::VpId vp = paths[k].vp;
    row_vp[k] = vp_ids.insert((std::uint64_t{vp.ip} << 32) | vp.asn).id;
  }
  result.vp_count = vp_ids.size();
  if (result.vp_count == 0) return result;
  std::vector<std::uint32_t> vp_offsets(result.vp_count + 1, 0);
  for (const std::uint32_t vp : row_vp) ++vp_offsets[vp + 1];
  std::partial_sum(vp_offsets.begin(), vp_offsets.end(), vp_offsets.begin());
  std::vector<std::uint32_t> order(paths.size());
  {
    std::vector<std::uint32_t> cursor(vp_offsets.begin(), vp_offsets.end() - 1);
    for (std::size_t k = 0; k < paths.size(); ++k) {
      order[cursor[row_vp[k]]++] = static_cast<std::uint32_t>(k);
    }
  }

  // One VP at a time: mass per AS id, reset through the touched list. A
  // VP whose paths weigh nothing scores no AS but stays in vp_count.
  util::DenseIndex<Asn> as_ids;
  std::vector<double> mass;
  std::vector<std::uint32_t> last_vp;  // by AS id: the VP that last touched it
  std::vector<std::uint32_t> touched;
  std::vector<std::pair<std::uint32_t, double>> vp_scores;  // (AS id, score)
  for (std::uint32_t v = 0; v < result.vp_count; ++v) {
    double total = 0.0;
    touched.clear();
    for (std::uint32_t r = vp_offsets[v]; r < vp_offsets[v + 1]; ++r) {
      const sanitize::PathRecord sp = paths[order[r]];
      const double w = options_.weight_by_addresses ? static_cast<double>(sp.weight) : 1.0;
      total += w;
      const auto hops = sp.path.hops();
      const std::size_t begin = options_.exclude_vp_as && hops.size() > 1 ? 1 : 0;
      for (std::size_t i = begin; i < hops.size(); ++i) {
        const std::uint32_t id = as_ids.insert(hops[i]).id;
        if (id == mass.size()) {
          mass.push_back(0.0);
          last_vp.push_back(kNone);
        }
        if (last_vp[id] != v) {
          last_vp[id] = v;
          touched.push_back(id);
        }
        mass[id] += w;
      }
    }
    for (const std::uint32_t id : touched) {
      if (total > 0.0) vp_scores.emplace_back(id, mass[id] / total);
      mass[id] = 0.0;
    }
  }

  // Group the scores by AS (CSR) and trim-average each AS, in ASN order.
  const std::size_t as_count = as_ids.size();
  std::vector<std::uint32_t> offsets(as_count + 1, 0);
  for (const auto& [id, score] : vp_scores) ++offsets[id + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<double> grouped(vp_scores.size());
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [id, score] : vp_scores) grouped[cursor[id]++] = score;
  }
  std::vector<std::uint32_t> scored;
  for (std::uint32_t id = 0; id < as_count; ++id) {
    if (offsets[id] != offsets[id + 1]) scored.push_back(id);
  }
  std::sort(scored.begin(), scored.end(), [&](std::uint32_t a, std::uint32_t b) {
    return as_ids.key(a) < as_ids.key(b);
  });
  result.scores.reserve(scored.size());
  for (const std::uint32_t id : scored) {
    std::vector<double> per_vp(grouped.begin() + offsets[id],
                               grouped.begin() + offsets[id + 1]);
    result.scores.push_back(
        ScoredAs{as_ids.key(id), trimmed_average(std::move(per_vp), result.vp_count)});
  }
  return result;
}

HegemonyResult per_origin_hegemony(sanitize::PathsView paths, Asn origin,
                                   HegemonyOptions options) {
  // Select by index instead of copying paths into a scratch vector.
  std::vector<std::uint32_t> subset;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const sanitize::PathRecord sp = paths[k];
    if (!sp.path.empty() && sp.path.origin() == origin) {
      subset.push_back(static_cast<std::uint32_t>(paths.base_index(k)));
    }
  }
  Hegemony hegemony{options};
  return hegemony.compute(paths.rebase(subset));
}

Ranking HegemonyResult::ranking() const { return Ranking::from_scores(scores); }

double HegemonyResult::score_of(Asn asn) const {
  auto it = std::lower_bound(
      scores.begin(), scores.end(), asn,
      [](const ScoredAs& entry, Asn key) { return entry.asn < key; });
  return it != scores.end() && it->asn == asn ? it->score : 0.0;
}

}  // namespace georank::rank
