#include "rank/customer_cone.hpp"

#include <algorithm>
#include <numeric>

namespace georank::rank {

namespace {

/// A stored path, named by where its hops live: equal keys are the same
/// slice of the same storage, so they hold the same hops.
struct PathKey {
  const Asn* hops = nullptr;
  std::size_t length = 0;

  friend bool operator==(const PathKey&, const PathKey&) = default;
};

struct PathKeyHash {
  [[nodiscard]] std::uint64_t operator()(const PathKey& key) const noexcept {
    return util::FibonacciHash{}(reinterpret_cast<std::uintptr_t>(key.hops) ^
                                 (std::uint64_t{key.length} << 48));
  }
};

[[nodiscard]] std::uint64_t prefix_key(const bgp::Prefix& p) noexcept {
  return (std::uint64_t{p.address()} << 8) | p.length();
}

[[nodiscard]] std::uint64_t pack(std::uint32_t high, std::uint32_t low) noexcept {
  return (std::uint64_t{high} << 32) | low;
}
[[nodiscard]] std::uint32_t high(std::uint64_t pair) noexcept {
  return static_cast<std::uint32_t>(pair >> 32);
}
[[nodiscard]] std::uint32_t low(std::uint64_t pair) noexcept {
  return static_cast<std::uint32_t>(pair);
}

}  // namespace

std::size_t CustomerCone::cone_suffix_start(bgp::AsPathView path) const {
  // Walk the links VP->origin; the suffix begins after the LAST link that
  // is not provider->customer (unknown links count as not-p2c).
  std::size_t start = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!is_p2c(path[i], path[i + 1])) start = i + 1;
  }
  return start;
}

bool CustomerCone::is_p2c(Asn from, Asn to) const {
  const auto rel = relationships_->relationship(from, to);
  return rel && *rel == topo::Rel::kCustomer;
}

ConeResult CustomerCone::compute(sanitize::PathsView paths) const {
  constexpr std::uint32_t kNone = ConeResult::kNone;
  ConeResult result;
  util::DenseIndex<std::uint64_t> prefix_ids{paths.size() / 2};
  util::DenseIndex<PathKey, PathKeyHash> distinct{paths.size() / 2};
  std::vector<std::uint32_t> path_origin;    // by distinct path: origin AS id
  std::vector<std::uint64_t> pairs;          // (holder, downstream member)
  std::vector<std::uint64_t> extra_origins;  // (origin, prefix) past the first
  std::vector<std::uint32_t> hop_ids;
  util::DenseIndex<std::uint64_t> link_ids;  // (AS id, next AS id)
  std::vector<bool> descends;                // by link: provider->customer

  for (const sanitize::PathRecord sp : paths) {
    const auto [pid, new_prefix] = prefix_ids.insert(prefix_key(sp.prefix));
    if (new_prefix) {
      result.prefixes_.push_back(sp.prefix);
      result.weight_.push_back(sp.weight);
      result.first_origin_.push_back(kNone);
      result.total_weight += sp.weight;
    }

    const std::span<const Asn> hops = sp.path.hops();
    if (hops.empty()) continue;
    const auto [path_id, new_path] = distinct.insert(PathKey{hops.data(), hops.size()});
    if (new_path) {
      // Every AS seen on any path exists in the result, cone >= {self}.
      hop_ids.clear();
      for (const Asn hop : hops) hop_ids.push_back(result.ases_.insert(hop).id);
      // cone_suffix_start's walk, each link's relationship looked up once.
      std::size_t start = 0;
      for (std::size_t i = 0; i + 1 < hop_ids.size(); ++i) {
        const auto [link, added] = link_ids.insert(pack(hop_ids[i], hop_ids[i + 1]));
        if (added) descends.push_back(is_p2c(hops[i], hops[i + 1]));
        if (!descends[link]) start = i + 1;
      }
      for (std::size_t i = start; i + 1 < hop_ids.size(); ++i) {
        for (std::size_t j = i + 1; j < hop_ids.size(); ++j) {
          pairs.push_back(pack(hop_ids[i], hop_ids[j]));
        }
      }
      path_origin.push_back(hop_ids.back());
    }
    const std::uint32_t origin = path_origin[path_id];
    std::uint32_t& first = result.first_origin_[pid];
    if (first == kNone) {
      first = origin;
    } else if (first != origin) {
      extra_origins.push_back(pack(origin, pid));
    }
  }

  // Cone CSR: bucket the pairs by holder behind each holder's own id,
  // then drop repeats in place and sort what is left.
  const std::size_t as_count = result.ases_.size();
  std::vector<std::uint32_t>& offsets = result.cone_offsets_;
  offsets.assign(as_count + 1, 1);
  offsets[0] = 0;
  for (const std::uint64_t pair : pairs) ++offsets[high(pair) + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<std::uint32_t>& members = result.cone_members_;
  members.resize(offsets[as_count]);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::uint32_t id = 0; id < as_count; ++id) members[cursor[id]++] = id;
  for (const std::uint64_t pair : pairs) members[cursor[high(pair)]++] = low(pair);
  std::vector<std::uint32_t>& seen = cursor;
  std::fill(seen.begin(), seen.end(), kNone);
  std::uint32_t kept = 0;
  for (std::uint32_t holder = 0; holder < as_count; ++holder) {
    const std::uint32_t begin = offsets[holder];
    const std::uint32_t end = offsets[holder + 1];
    offsets[holder] = kept;
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t member = members[k];
      if (seen[member] == holder) continue;
      seen[member] = holder;
      members[kept++] = member;
    }
    std::sort(members.begin() + offsets[holder], members.begin() + kept);
  }
  offsets[as_count] = kept;
  members.resize(kept);

  // Originations: a prefix with one origin adds its weight to that
  // origin's solo weight; a MOAS prefix is listed under each origin.
  std::sort(extra_origins.begin(), extra_origins.end());
  extra_origins.erase(std::unique(extra_origins.begin(), extra_origins.end()),
                      extra_origins.end());
  std::vector<bool> moas(result.weight_.size(), false);
  for (const std::uint64_t extra : extra_origins) moas[low(extra)] = true;
  std::vector<std::uint64_t>& moas_pairs = extra_origins;
  result.solo_weight_.assign(as_count, 0);
  for (std::uint32_t pid = 0; pid < result.weight_.size(); ++pid) {
    const std::uint32_t origin = result.first_origin_[pid];
    if (origin == kNone) continue;
    if (moas[pid]) {
      moas_pairs.push_back(pack(origin, pid));
    } else {
      result.solo_weight_[origin] += result.weight_[pid];
    }
  }
  std::sort(moas_pairs.begin(), moas_pairs.end());
  result.moas_offsets_.assign(as_count + 1, 0);
  for (const std::uint64_t pair : moas_pairs) ++result.moas_offsets_[high(pair) + 1];
  std::partial_sum(result.moas_offsets_.begin(), result.moas_offsets_.end(),
                   result.moas_offsets_.begin());
  result.moas_prefixes_.reserve(moas_pairs.size());
  for (const std::uint64_t pair : moas_pairs) result.moas_prefixes_.push_back(low(pair));
  return result;
}

std::size_t ConeResult::cone_size(Asn asn) const {
  const std::uint32_t id = ases_.find(asn);
  return id == kNone ? 0 : cone_of(id).size();
}

std::vector<Asn> ConeResult::members(Asn asn) const {
  std::vector<Asn> out;
  const std::uint32_t id = ases_.find(asn);
  if (id == kNone) return out;
  for (const std::uint32_t member : cone_of(id)) out.push_back(ases_.key(member));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<bgp::Prefix> ConeResult::prefix_cone_of(Asn asn) const {
  std::vector<bgp::Prefix> out;
  const std::uint32_t id = ases_.find(asn);
  if (id == kNone) return out;
  std::vector<bool> in_cone(ases_.size(), false);
  for (const std::uint32_t member : cone_of(id)) {
    in_cone[member] = true;
    for (std::uint32_t k = moas_offsets_[member]; k < moas_offsets_[member + 1]; ++k) {
      out.push_back(prefixes_[moas_prefixes_[k]]);
    }
  }
  for (std::uint32_t pid = 0; pid < prefixes_.size(); ++pid) {
    const std::uint32_t origin = first_origin_[pid];
    if (origin != kNone && in_cone[origin]) out.push_back(prefixes_[pid]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t ConeResult::addresses_of(std::uint32_t id,
                                       std::vector<std::uint32_t>& stamp) const {
  std::uint64_t total = 0;
  for (const std::uint32_t member : cone_of(id)) {
    total += solo_weight_[member];
    // A MOAS prefix may come from several members: count it once.
    for (std::uint32_t k = moas_offsets_[member]; k < moas_offsets_[member + 1]; ++k) {
      const std::uint32_t pid = moas_prefixes_[k];
      if (stamp[pid] == id) continue;
      stamp[pid] = id;
      total += weight_[pid];
    }
  }
  return total;
}

std::uint64_t ConeResult::cone_addresses(Asn asn) const {
  const std::uint32_t id = ases_.find(asn);
  if (id == kNone) return 0;
  std::vector<std::uint32_t> stamp(weight_.size(), kNone);
  return addresses_of(id, stamp);
}

Ranking ConeResult::by_addresses() const {
  std::vector<ScoredAs> scores;
  scores.reserve(ases_.size());
  const double denom = total_weight ? static_cast<double>(total_weight) : 1.0;
  std::vector<std::uint32_t> stamp(weight_.size(), kNone);
  for (std::uint32_t id = 0; id < ases_.size(); ++id) {
    scores.push_back(ScoredAs{
        ases_.key(id), static_cast<double>(addresses_of(id, stamp)) / denom});
  }
  return Ranking::from_scores(std::move(scores));
}

Ranking ConeResult::by_as_count() const {
  std::vector<ScoredAs> scores;
  scores.reserve(ases_.size());
  for (std::uint32_t id = 0; id < ases_.size(); ++id) {
    scores.push_back(ScoredAs{ases_.key(id), static_cast<double>(cone_of(id).size())});
  }
  return Ranking::from_scores(std::move(scores));
}

}  // namespace georank::rank
