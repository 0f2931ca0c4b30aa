#include "core/sharded_path_store.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/parallel_for.hpp"

namespace georank::core {

namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v;
  h *= 1099511628211ull;
}

}  // namespace

ShardedPathStore::ShardedPathStore(
    std::span<const sanitize::SanitizedPath> paths, std::size_t threads) {
  rebuild(paths, threads);
}

bool ShardedPathStore::compact_if_sparse(
    std::span<const sanitize::SanitizedPath> paths) {
  // A fresh build never trips this (each interned path is some row's),
  // so the arena only outgrows the rule by accumulating paths that
  // earlier rebuilds' rows used and no current row does.
  if (interned_.arena_size() <= 2 * live_hops_) return false;
  interned_.clear();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    handles_[i] = intern(paths[i].path.hops());
  }
  return true;
}

ShardedPathStore::RebuildStats ShardedPathStore::rebuild(
    std::span<const sanitize::SanitizedPath> paths, std::size_t threads) {
  const std::size_t n = paths.size();
  size_ = n;

  // ---- Phase 1: shared hop dictionary (sequential, deterministic).
  // The dictionary is a member and append-only (until it compacts), so
  // handles issued by a previous build and still referenced by shards
  // kept below remain valid.
  handles_.clear();
  handles_.reserve(n);
  live_hops_ = 0;
  if (interned_.size() == 0) interned_.reserve(n);
  for (const sanitize::SanitizedPath& row : paths) {
    handles_.push_back(intern(row.path.hops()));
    live_hops_ += row.path.size();
  }
  const bool compacted = compact_if_sparse(paths);

  // ---- Phase 2a: mark each row's target shard(s), sequentially. A row
  // lands in its prefix country's shard and, when different, its VP
  // country's shard; invalid codes never create a shard. Row lists stay
  // ascending because i is.
  rows_of_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const geo::CountryCode pc = paths[i].prefix_country;
    const geo::CountryCode vc = paths[i].vp_country;
    if (pc.valid()) rows_of_[pc].push_back(i);
    if (vc.valid() && vc != pc) rows_of_[vc].push_back(i);
  }
  return regather(paths, threads, nullptr, !compacted);
}

ShardedPathStore::RebuildStats ShardedPathStore::patch(
    std::span<const sanitize::SanitizedPath> paths,
    std::span<const std::uint32_t> erased,
    std::span<const std::uint32_t> inserted, std::size_t threads) {
  const std::size_t old_n = handles_.size();
  const std::size_t n = paths.size();
  if (old_n < erased.size() || old_n - erased.size() + inserted.size() != n) {
    throw std::logic_error{
        "ShardedPathStore::patch(): the edit does not match the rows"};
  }
  size_ = n;

  // ---- Phase 1: splice the handles. Kept rows keep theirs; only the
  // inserted rows are interned. `remap` takes an old row index to its
  // new one (kGone for erased rows) for the row lists below.
  constexpr std::uint32_t kGone = ~std::uint32_t{0};
  std::vector<std::uint32_t> remap(old_n);
  std::vector<sanitize::PathHandle> handles;
  handles.reserve(n);
  std::size_t next_erase = 0;
  std::size_t next_insert = 0;
  const auto insert_due = [&] {
    while (next_insert < inserted.size() &&
           inserted[next_insert] == handles.size()) {
      const bgp::AsPath& path = paths[handles.size()].path;
      handles.push_back(intern(path.hops()));
      live_hops_ += path.size();
      ++next_insert;
    }
  };
  for (std::size_t i = 0; i < old_n; ++i) {
    insert_due();
    if (next_erase < erased.size() && erased[next_erase] == i) {
      remap[i] = kGone;
      live_hops_ -= handles_[i].length;
      ++next_erase;
      continue;
    }
    remap[i] = static_cast<std::uint32_t>(handles.size());
    handles.push_back(handles_[i]);
  }
  insert_due();
  handles_ = std::move(handles);
  const bool compacted = compact_if_sparse(paths);

  // ---- Phase 2a: renumber every country's row list, dropping erased
  // rows, then add the inserted rows to their countries' lists. A
  // country that lost or gained a row is touched; any other keeps an
  // identical row list over identical rows, so phase 2 moves its shard
  // over without re-digesting the content.
  std::unordered_set<geo::CountryCode, geo::CountryCodeHash> touched;
  // lint: ordered(per-entry renumbering, no cross-entry state)
  for (auto it = rows_of_.begin(); it != rows_of_.end();) {
    std::vector<std::uint32_t>& rows = it->second;
    std::size_t kept = 0;
    for (std::uint32_t row : rows) {
      if (remap[row] != kGone) rows[kept++] = remap[row];
    }
    if (kept != rows.size()) {
      touched.insert(it->first);
      rows.resize(kept);
    }
    if (rows.empty()) {
      it = rows_of_.erase(it);
    } else {
      ++it;
    }
  }
  const auto add_row = [&](geo::CountryCode cc, std::uint32_t row) {
    std::vector<std::uint32_t>& rows = rows_of_[cc];
    rows.insert(std::upper_bound(rows.begin(), rows.end(), row), row);
    touched.insert(cc);
  };
  for (std::uint32_t row : inserted) {
    const geo::CountryCode pc = paths[row].prefix_country;
    const geo::CountryCode vc = paths[row].vp_country;
    if (pc.valid()) add_row(pc, row);
    if (vc.valid() && vc != pc) add_row(vc, row);
  }
  return regather(paths, threads, &touched, !compacted);
}

ShardedPathStore::RebuildStats ShardedPathStore::regather(
    std::span<const sanitize::SanitizedPath> paths, std::size_t threads,
    const std::unordered_set<geo::CountryCode, geo::CountryCodeHash>* touched,
    bool reuse_old) {
  // Previous build's shards, indexed by their (sorted) country list. A
  // new shard whose content matches its predecessor is MOVED over
  // instead of re-gathered; anything left in old_shards is dropped.
  std::vector<PathShard> old_shards = std::move(shards_);
  std::vector<geo::CountryCode> old_countries = std::move(shard_countries_);
  if (!reuse_old) old_countries.clear();
  shards_ = {};
  shard_countries_ = {};
  prefix_countries_.clear();
  vp_countries_.clear();

  shard_countries_.reserve(rows_of_.size());
  // lint: ordered(key collection only; sorted immediately below)
  for (const auto& [cc, _] : rows_of_) shard_countries_.push_back(cc);
  std::sort(shard_countries_.begin(), shard_countries_.end());

  const auto claim_old = [&](geo::CountryCode cc) -> PathShard* {
    const auto old_it =
        std::lower_bound(old_countries.begin(), old_countries.end(), cc);
    if (old_it == old_countries.end() || *old_it != cc) return nullptr;
    return &old_shards[static_cast<std::size_t>(old_it - old_countries.begin())];
  };

  // Shards the edit left alone move over first, inline; only the rest
  // are worth a worker. Each old shard is claimed by at most one slot
  // (countries are unique).
  shards_.resize(shard_countries_.size());
  std::vector<std::uint8_t> kept(shard_countries_.size(), 0);
  std::vector<std::size_t> work;
  for (std::size_t s = 0; s < shard_countries_.size(); ++s) {
    const geo::CountryCode cc = shard_countries_[s];
    PathShard* old_shard = nullptr;
    if (touched != nullptr && !touched->contains(cc)) old_shard = claim_old(cc);
    if (old_shard != nullptr) {
      shards_[s] = std::move(*old_shard);
      kept[s] = 1;
    } else {
      work.push_back(s);
    }
  }

  // ---- Phase 2b: per remaining shard, shard-parallel: digest the
  // candidate rows (content only — cheap, no allocation), keep the old
  // shard when the digest and row count are unchanged, else gather
  // columns, selection lists and cost from scratch. Shards are
  // disjoint, so workers share nothing but read-only inputs.
  util::parallel_for(
      work.size(),
      [&](std::size_t w) {
        const std::size_t s = work[w];
        const geo::CountryCode cc = shard_countries_[s];
        const std::vector<std::uint32_t>& rows = rows_of_.at(cc);
        const std::size_t m = rows.size();

        // Digest pre-pass. Hashes hop CONTENT, never arena offsets —
        // offsets shift between loads even when this country's paths
        // did not.
        std::uint64_t digest = 14695981039346656037ull;
        std::uint64_t hop_cost = 0;
        for (std::uint32_t g : rows) {
          const sanitize::SanitizedPath& sp = paths[g];
          fnv_mix(digest, sp.vp.ip);
          fnv_mix(digest, sp.vp.asn);
          fnv_mix(digest, sp.vp_country.raw());
          fnv_mix(digest, sp.prefix.address());
          fnv_mix(digest, sp.prefix.length());
          fnv_mix(digest, sp.prefix_country.raw());
          fnv_mix(digest, sp.weight);
          const std::span<const bgp::Asn> hops = sp.path.hops();
          fnv_mix(digest, hops.size());
          for (bgp::Asn hop : hops) fnv_mix(digest, hop);
          hop_cost += hops.size();
        }

        if (PathShard* old_shard = claim_old(cc); old_shard != nullptr &&
                                                  old_shard->size() == m &&
                                                  old_shard->digest() == digest) {
          shards_[s] = std::move(*old_shard);
          kept[s] = 1;
          return;
        }

        PathShard& sh = shards_[s];
        sh.country_ = cc;
        sh.vp_.reserve(m);
        sh.vp_country_.reserve(m);
        sh.prefix_.reserve(m);
        sh.prefix_country_.reserve(m);
        sh.weight_.reserve(m);
        sh.handle_.reserve(m);

        for (std::uint32_t local = 0; local < m; ++local) {
          const std::uint32_t g = rows[local];
          const sanitize::SanitizedPath& sp = paths[g];
          sh.vp_.push_back(sp.vp);
          sh.vp_country_.push_back(sp.vp_country);
          sh.prefix_.push_back(sp.prefix);
          sh.prefix_country_.push_back(sp.prefix_country);
          sh.weight_.push_back(sp.weight);
          sh.handle_.push_back(handles_[g]);

          const bool prefix_local = sp.prefix_country == cc;
          const bool vp_local = sp.vp_country == cc;
          if (prefix_local) {
            sh.prefix_rows_.push_back(local);
            if (vp_local) {
              sh.national_rows_.push_back(local);
            } else if (sp.vp_country.valid()) {
              sh.international_rows_.push_back(local);
            }
          }
          if (vp_local) {
            sh.vp_rows_.push_back(local);
            if (sp.prefix_country.valid() && !prefix_local) {
              sh.outbound_rows_.push_back(local);
            }
          }
        }
        sh.digest_ = digest;
        sh.cost_ = static_cast<std::uint64_t>(m) + hop_cost;
      },
      threads);

  // Appending to (or compacting) the arena may have reallocated it;
  // point every shard (kept and rebuilt alike) at the current buffer.
  RebuildStats result;
  const bgp::Asn* arena = interned_.arena();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].arena_ = arena;
    result.shards_kept += kept[s];
  }
  result.shards_rebuilt = shards_.size() - result.shards_kept;

  // Census domains, derived from the (sorted) shards so they come out
  // ascending without another sort.
  for (const PathShard& sh : shards_) {
    if (!sh.prefix_rows_.empty()) prefix_countries_.push_back(sh.country_);
    if (!sh.vp_rows_.empty()) vp_countries_.push_back(sh.country_);
  }
  return result;
}

ShardedPathStore ShardedPathStore::clone() const {
  ShardedPathStore copy;
  copy.interned_ = interned_;
  copy.handles_ = handles_;
  copy.live_hops_ = live_hops_;
  copy.rows_of_ = rows_of_;
  copy.shards_ = shards_;
  copy.shard_countries_ = shard_countries_;
  copy.prefix_countries_ = prefix_countries_;
  copy.vp_countries_ = vp_countries_;
  copy.size_ = size_;
  // The copied shards still borrow the ORIGINAL arena; re-point them at
  // the copy's own buffer so the clone is self-contained.
  const bgp::Asn* arena = copy.interned_.arena();
  for (PathShard& sh : copy.shards_) sh.arena_ = arena;
  return copy;
}

const PathShard* ShardedPathStore::shard(geo::CountryCode country) const noexcept {
  const auto it = std::lower_bound(shard_countries_.begin(),
                                   shard_countries_.end(), country);
  if (it == shard_countries_.end() || *it != country) return nullptr;
  return &shards_[static_cast<std::size_t>(it - shard_countries_.begin())];
}

CountryView ShardedPathStore::national_view(geo::CountryCode country) const {
  const PathShard* sh = shard(country);
  if (sh == nullptr) {
    return CountryView{sanitize::PathColumns{}, std::span<const std::uint32_t>{},
                       country, ViewKind::kNational};
  }
  return sh->national_view();
}

CountryView ShardedPathStore::international_view(geo::CountryCode country) const {
  const PathShard* sh = shard(country);
  if (sh == nullptr) {
    return CountryView{sanitize::PathColumns{}, std::span<const std::uint32_t>{},
                       country, ViewKind::kInternational};
  }
  return sh->international_view();
}

CountryView ShardedPathStore::outbound_view(geo::CountryCode country) const {
  const PathShard* sh = shard(country);
  if (sh == nullptr) {
    return CountryView{sanitize::PathColumns{}, std::span<const std::uint32_t>{},
                       country, ViewKind::kOutbound};
  }
  return sh->outbound_view();
}

CountryView ShardedPathStore::view(geo::CountryCode country,
                                   ViewKind kind) const {
  switch (kind) {
    case ViewKind::kInternational: return international_view(country);
    case ViewKind::kOutbound: return outbound_view(country);
    case ViewKind::kNational: break;
  }
  return national_view(country);
}

std::vector<std::uint64_t> ShardedPathStore::census_costs() const {
  std::vector<std::uint64_t> costs;
  costs.reserve(prefix_countries_.size());
  for (geo::CountryCode cc : prefix_countries_) {
    const PathShard* sh = shard(cc);
    costs.push_back(sh == nullptr ? 0 : sh->cost());
  }
  return costs;
}

std::uint64_t ShardedPathStore::shard_digest(geo::CountryCode country) const noexcept {
  const PathShard* sh = shard(country);
  return sh == nullptr ? 0 : sh->digest();
}

}  // namespace georank::core
