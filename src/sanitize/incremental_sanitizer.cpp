#include "sanitize/incremental_sanitizer.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace georank::sanitize {

namespace {

/// Every counter of SanitizeStats, for the delta path's per-entry
/// subtract/add.
constexpr std::size_t SanitizeStats::*kCounters[] = {
    &SanitizeStats::total,          &SanitizeStats::accepted,
    &SanitizeStats::unstable,       &SanitizeStats::unallocated,
    &SanitizeStats::loop,           &SanitizeStats::poisoned,
    &SanitizeStats::vp_no_location, &SanitizeStats::covered_prefix,
    &SanitizeStats::prefix_no_location, &SanitizeStats::as_set,
    &SanitizeStats::duplicates_merged,
};
// A counter added to SanitizeStats must be listed above, or the delta
// path would leave it at its pre-delta value.
static_assert(sizeof(SanitizeStats) == std::size(kCounters) * sizeof(std::size_t));

/// `into -= entry`; false (and `into` partly patched) on underflow,
/// which means the entry was never counted.
bool remove_counts(SanitizeStats& into, const SanitizeStats& entry) {
  for (std::size_t SanitizeStats::*counter : kCounters) {
    if (into.*counter < entry.*counter) return false;
    into.*counter -= entry.*counter;
  }
  return true;
}

void add_counts(SanitizeStats& into, const SanitizeStats& entry) {
  for (std::size_t SanitizeStats::*counter : kCounters) {
    into.*counter += entry.*counter;
  }
}

bool route_less(const bgp::VpId& vp_a, const bgp::Prefix& prefix_a,
                const bgp::VpId& vp_b, const bgp::Prefix& prefix_b) {
  if (vp_a != vp_b) return vp_a < vp_b;
  return prefix_a < prefix_b;
}

/// The delta path's structural precondition on a collection: its final
/// day holds at most one entry per (VP, prefix), in (VP, prefix) order,
/// and carries a later day number than the day before it.
bool final_day_keyed_by_route(const bgp::RibCollection& ribs) {
  const std::size_t n = ribs.days.size();
  if (n >= 2 && ribs.days[n - 1].day <= ribs.days[n - 2].day) return false;
  const std::vector<bgp::RouteEntry>& entries = ribs.days.back().entries;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (!route_less(entries[i - 1].vp, entries[i - 1].prefix, entries[i].vp,
                    entries[i].prefix)) {
      return false;
    }
  }
  return true;
}

}  // namespace

IncrementalSanitizer::IncrementalSanitizer(const geo::GeoDatabase& geo_db,
                                           const geo::VpGeolocator& vps,
                                           const AsnRegistry& registry,
                                           SanitizerOptions options)
    : geo_db_(&geo_db),
      vps_(&vps),
      registry_(&registry),
      options_(std::move(options)) {}

void IncrementalSanitizer::invalidate() noexcept {
  memo_valid_ = false;
  // Release the flat dedup tables rather than keep their capacity beside
  // the next run's.
  memo_ = {};
  path_refs_ = {};
  live_paths_ = 0;
}

void IncrementalSanitizer::retain(std::uint32_t id) {
  if (id >= path_refs_.size()) path_refs_.resize(memo_.state.paths.size());
  if (path_refs_[id]++ == 0) ++live_paths_;
}

void IncrementalSanitizer::release(std::uint32_t id) noexcept {
  if (--path_refs_[id] == 0) --live_paths_;
}

SanitizeResult IncrementalSanitizer::run_full(const bgp::RibCollection& ribs) {
  invalidate();
  // Capture only what the delta path can use (see the header comment).
  const bool capture = !options_.clique.empty() &&
                       options_.samples_per_category == 0 &&
                       !ribs.days.empty() && final_day_keyed_by_route(ribs);
  SanitizeResult result = detail::run_collection(
      ribs, *geo_db_, *vps_, *registry_, options_, capture ? &memo_ : nullptr);

  if (capture) {
    path_refs_.assign(memo_.state.paths.size(), 0);
    memo_.state.dedup.for_each([&](const detail::DedupKey& key) { retain(key.path); });
    final_day_number_ = ribs.days.back().day;
    memo_valid_ = true;
  }
  return result;
}

std::optional<IncrementalSanitizer::DeltaPlan> IncrementalSanitizer::plan_delta(
    int day, std::span<const bgp::RouteDelta> deltas,
    const SanitizeResult& current) const {
  if (!memo_valid_ || day != final_day_number_ ||
      current.paths.size() < memo_.head_rows || paths_sparse()) {
    return std::nullopt;
  }

  // The changed keys in (VP, prefix) order — the order of the final
  // day's rows — each key once.
  std::vector<const bgp::RouteDelta*> order;
  order.reserve(deltas.size());
  for (const bgp::RouteDelta& d : deltas) {
    if (d.old_path != d.new_path) order.push_back(&d);
  }
  std::sort(order.begin(), order.end(),
            [](const bgp::RouteDelta* a, const bgp::RouteDelta* b) {
              return route_less(a->vp, a->prefix, b->vp, b->prefix);
            });
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (!route_less(order[i - 1]->vp, order[i - 1]->prefix, order[i]->vp,
                    order[i]->prefix)) {
      return std::nullopt;
    }
  }

  DeltaPlan plan;
  plan.stats = current.stats;

  // ---- Stability: each touched prefix's final-day presence may move,
  // but never across the threshold (that would change the stable set,
  // and with it the covered set and geo consensus every row read).
  // `scratch` holds the post-delta day counts of the touched prefixes,
  // which is all filter_day asks of them. ----
  struct Tally {
    std::uint32_t olds = 0;
    std::uint32_t news = 0;
  };
  std::unordered_map<bgp::Prefix, Tally, bgp::PrefixHash> tallies;
  for (const bgp::RouteDelta* d : order) {
    Tally& t = tallies[d->prefix];
    if (d->old_path) ++t.olds;
    if (d->new_path) ++t.news;
  }
  detail::DayCounts scratch;
  scratch.reserve(tallies.size());
  plan.counts.reserve(tallies.size());
  // lint: ordered(per-prefix checks; plan.counts is applied per key)
  for (const auto& [prefix, t] : tallies) {
    const auto it = memo_.counts.find(prefix);
    const detail::PrefixDays before =
        it == memo_.counts.end() ? detail::PrefixDays{0, day, 0} : it->second;
    const bool present = before.last_day == day && before.day_entries > 0;
    const std::uint32_t entries = present ? before.day_entries : 0;
    if (entries < t.olds) return std::nullopt;  // old entries the memo lacks
    const std::uint32_t after = entries - t.olds + t.news;
    const std::uint32_t head = before.count - (present ? 1u : 0u);
    const detail::PrefixDays patched{head + (after > 0 ? 1u : 0u), day, after};
    if ((patched.count >= memo_.need) != (before.count >= memo_.need)) {
      return std::nullopt;
    }
    scratch.emplace(prefix, patched);
    plan.counts.emplace_back(prefix, patched);
  }

  // ---- Re-decide each changed key's old and new entry with the batch
  // classifier; the memo decides duplicates, because within a
  // route-keyed final day a key's dedup identity can only collide with a
  // head-day key or its own old one. Paths are looked up, not interned:
  // one the interner lacks is in no key. ----
  const detail::FilterWorld world{&scratch, memo_.need, options_.clique,
                                  &current.prefix_geo, &memo_.covered};
  const detail::DedupSet& dedup = memo_.state.dedup;
  const PathInterner& interned = memo_.state.paths;
  std::vector<bgp::Asn> cleaned;
  const auto classify = [&](const bgp::RouteDelta& d, const bgp::AsPath& path,
                            SanitizeStats& entry_stats) {
    const detail::Verdict v = detail::classify(d.vp, d.prefix, path, world, *vps_,
                                               *registry_, options_, cleaned);
    entry_stats.total = 1;
    ++detail::counter(entry_stats, v.reason);
    return v;
  };
  const std::span<const SanitizedPath> final_rows =
      std::span<const SanitizedPath>{current.paths}.subspan(memo_.head_rows);
  for (const bgp::RouteDelta* d : order) {
    const auto row = std::lower_bound(
        final_rows.begin(), final_rows.end(), *d,
        [](const SanitizedPath& r, const bgp::RouteDelta& key) {
          return route_less(r.vp, r.prefix, key.vp, key.prefix);
        });
    const bool has_row =
        row != final_rows.end() && row->vp == d->vp && row->prefix == d->prefix;
    std::optional<detail::DedupKey> old_key;  // a final-day key it held
    if (d->old_path) {
      SanitizeStats old_stats;
      const detail::Verdict v = classify(*d, *d->old_path, old_stats);
      if (!remove_counts(plan.stats, old_stats)) return std::nullopt;
      if (v.reason == FilterReason::kAccepted && !cleaned.empty()) {
        const detail::DedupKey key{d->vp, d->prefix, interned.find(cleaned)};
        if (key.path == PathInterner::kNoId) return std::nullopt;
        if (has_row) {
          const std::span<const bgp::Asn> hops = row->path.hops();
          if (!std::equal(hops.begin(), hops.end(), cleaned.begin(), cleaned.end())) {
            return std::nullopt;
          }
          plan.erase.push_back(static_cast<std::uint32_t>(
              memo_.head_rows + static_cast<std::size_t>(row - final_rows.begin())));
          old_key = key;
          plan.dedup_erase.push_back(key);
        } else {
          // No row: the old entry repeated a head-day key.
          if (!dedup.contains(key) ||
              plan.stats.duplicates_merged == 0) {
            return std::nullopt;
          }
          --plan.stats.duplicates_merged;
        }
      } else if (has_row) {
        return std::nullopt;
      }
    } else if (has_row) {
      return std::nullopt;
    }
    if (d->new_path) {
      SanitizeStats new_stats;
      const detail::Verdict v = classify(*d, *d->new_path, new_stats);
      add_counts(plan.stats, new_stats);
      if (v.reason == FilterReason::kAccepted && !cleaned.empty()) {
        const detail::DedupKey key{d->vp, d->prefix, interned.find(cleaned)};
        if (key.path != PathInterner::kNoId && key != old_key &&
            dedup.contains(key)) {
          ++plan.stats.duplicates_merged;  // the head-day key wins
        } else {
          plan.insert.push_back(SanitizedPath{
              d->vp, v.vp_country, d->prefix, v.prefix_country,
              current.prefix_geo.weight_of(d->prefix),
              bgp::AsPath{std::vector<bgp::Asn>(cleaned.begin(), cleaned.end())}});
        }
      }
    }
  }
  return plan;
}

IncrementalSanitizer::RowEdit IncrementalSanitizer::commit_delta(
    DeltaPlan&& plan, SanitizeResult& result) {
  // Merge the surviving final-day rows with the added ones; both are in
  // (VP, prefix) order, so the patched day stays in that order.
  RowEdit edit;
  std::vector<SanitizedPath>& paths = result.paths;
  std::vector<SanitizedPath> tail;
  tail.reserve(paths.size() - memo_.head_rows - plan.erase.size() +
               plan.insert.size());
  std::size_t next_erase = 0;
  std::size_t next_insert = 0;
  const auto add_inserted_before = [&](const SanitizedPath* row) {
    while (next_insert < plan.insert.size() &&
           (row == nullptr ||
            route_less(plan.insert[next_insert].vp,
                       plan.insert[next_insert].prefix, row->vp, row->prefix))) {
      edit.inserted.push_back(
          static_cast<std::uint32_t>(memo_.head_rows + tail.size()));
      tail.push_back(std::move(plan.insert[next_insert++]));
    }
  };
  for (std::size_t i = memo_.head_rows; i < paths.size(); ++i) {
    add_inserted_before(&paths[i]);
    if (next_erase < plan.erase.size() && plan.erase[next_erase] == i) {
      ++next_erase;
      continue;
    }
    tail.push_back(std::move(paths[i]));
  }
  add_inserted_before(nullptr);
  paths.resize(memo_.head_rows);
  paths.insert(paths.end(), std::make_move_iterator(tail.begin()),
               std::make_move_iterator(tail.end()));
  edit.erased = std::move(plan.erase);
  result.stats = plan.stats;

  // Re-arm the memo at the patched final day. Erase before insert: a
  // key whose path changed but cleans to the same path is in both. Each
  // added row inserts its key, interning its path.
  for (const detail::DedupKey& key : plan.dedup_erase) {
    if (memo_.state.dedup.erase(key)) release(key.path);
  }
  for (const std::uint32_t row : edit.inserted) {
    const SanitizedPath& added = paths[row];
    const std::uint32_t id = memo_.state.paths.intern(added.path.hops());
    if (memo_.state.dedup.insert(detail::DedupKey{added.vp, added.prefix, id})) {
      retain(id);
    }
  }
  for (const auto& [prefix, days] : plan.counts) {
    if (days.count == 0) {
      memo_.counts.erase(prefix);
    } else {
      memo_.counts[prefix] = days;
    }
  }
  return edit;
}

}  // namespace georank::sanitize
