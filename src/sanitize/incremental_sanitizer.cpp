#include "sanitize/incremental_sanitizer.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "infer/clique.hpp"
#include "infer/transit_degree.hpp"

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
  pending_ready_ = false;
  day_digests_.clear();
  head_counts_.clear();
  head_samples_.clear();
  dedup_post_.clear();
  counts_.clear();
  covered_.clear();
  delta_ready_ = false;
  head_rows_ = 0;
  final_len_ = 0;
  final_fold_valid_ = false;
}

void IncrementalSanitizer::drop_delta_memo() noexcept {
  counts_ = {};
  delta_ready_ = false;
}

SanitizeResult IncrementalSanitizer::run_full(const bgp::RibCollection& ribs,
                                              Outcome* outcome) {
  invalidate();
  SanitizeResult result;
  const std::size_t n = ribs.days.size();
  // The fast path needs an explicit clique: an inferred one reads the
  // final day's stable paths, so there is no day boundary to memoize.
  const bool capture = !options_.clique.empty() && n > 0;

  // ---- Stability counts, with the head (days [0, N-1)) captured. ----
  detail::DayCounts counts;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    detail::add_day_presence(counts, ribs.days[i]);
  }
  if (capture) head_counts_ = counts;
  if (n > 0) detail::add_day_presence(counts, ribs.days.back());
  need_ = detail::stability_need(options_, n);
  auto stable = [&](const bgp::Prefix& p) { return counts.at(p).count >= need_; };

  // ---- Clique: explicit or inferred from the stable, loop-free paths
  // (mirrors PathSanitizer::run exactly). ----
  std::vector<bgp::Asn> clique = options_.clique;
  if (clique.empty()) {
    infer::TransitDegree degrees;
    infer::ObservedAdjacency adjacency;
    for (const bgp::RibSnapshot& snap : ribs.days) {
      for (const bgp::RouteEntry& e : snap.entries) {
        if (!stable(e.prefix)) continue;
        if (e.path.has_as_set()) continue;
        bgp::AsPath collapsed = e.path.without_adjacent_duplicates();
        if (collapsed.has_nonadjacent_duplicate()) continue;
        degrees.add_path(collapsed);
        adjacency.add_path(collapsed);
      }
    }
    clique = infer::infer_clique(degrees, adjacency);
  }
  result.clique = clique;

  // ---- Prefix geolocation over the stable announced set. ----
  std::vector<bgp::Prefix> announced;
  announced.reserve(counts.size());
  for (const auto& [p, days] : counts) {
    if (days.count >= need_) announced.push_back(p);
  }
  geo::PrefixGeolocator geolocator{*geo_db_, options_.geo_threshold};
  result.prefix_geo = geolocator.run(announced);

  std::unordered_set<bgp::Prefix, bgp::PrefixHash> covered_set(
      result.prefix_geo.covered.begin(), result.prefix_geo.covered.end());

  // ---- Per-entry filtering; snapshot the sequential state right before
  // the final day — that boundary is where run_fast() resumes. ----
  detail::FilterWorld world{&counts, need_, clique, &result.prefix_geo,
                            &covered_set};
  detail::FilterState state;
  for (std::size_t i = 0; i < n; ++i) {
    if (capture && i + 1 == n) {
      head_stats_ = result.stats;
      head_sample_counts_ = state.sample_counts;
      head_samples_ = result.samples;
      head_rows_ = result.paths.size();
    }
    detail::filter_day(ribs.days[i].day, ribs.days[i].entries, world, *vps_,
                       *registry_, options_, state, result);
  }

  if (capture) {
    day_digests_.reserve(n);
    for (const bgp::RibSnapshot& snap : ribs.days) {
      day_digests_.push_back(detail::day_digest(snap));
    }
    stable_digest_ = detail::stable_set_digest(counts, need_);
    // The sequential state is memoized POST-run; run_fast() derives the
    // final-day boundary from it on demand (or, on the append path,
    // continues from it directly).
    dedup_post_ = std::move(state.dedup);
    post_sample_counts_ = state.sample_counts;
    final_day_number_ = ribs.days.back().day;
    final_len_ = ribs.days.back().entries.size();
    final_entries_fold_ =
        detail::fold_entries(detail::kFoldSeed, ribs.days.back().entries);
    final_fold_valid_ = true;
    counts_ = std::move(counts);
    covered_ = std::move(covered_set);
    delta_ready_ = options_.samples_per_category == 0 &&
                   final_day_keyed_by_route(ribs);
    memo_valid_ = true;
  }

  if (outcome) {
    outcome->fast_path = false;
    outcome->days_reused = 0;
    outcome->days_resanitized = n;
    outcome->rows_reused = 0;
  }
  return result;
}

bool IncrementalSanitizer::can_fast_path(const bgp::RibCollection& ribs) {
  pending_ready_ = false;
  pending_append_ = false;
  if (!memo_valid_ || options_.clique.empty()) return false;
  const std::size_t n = ribs.days.size();
  if (n == 0 || n != day_digests_.size()) return false;
  // The new final day must carry a later day number than the last head
  // day, or the presence counting below would fold them together.
  if (n >= 2 && ribs.days[n - 1].day <= ribs.days[n - 2].day) return false;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (detail::day_digest(ribs.days[i]) != day_digests_[i]) return false;
  }
  // Merge the new final day into the head counts and require the stable
  // set to come out unchanged: that pins every head filtering decision
  // AND the announced set the cached PrefixGeoResult was computed over.
  pending_counts_ = head_counts_;
  detail::add_day_presence(pending_counts_, ribs.days.back());
  if (detail::stable_set_digest(pending_counts_, need_) != stable_digest_) {
    return false;
  }
  // Append detection: same day number and the memoized entries a literal
  // prefix of the new ones (fold_entries' prefix property proves it).
  // Then every previously-filtered entry sees identical inputs — the
  // stable set is digest-pinned, and appended entries cannot alter the
  // day-presence of a prefix the old final day already counted — so only
  // the appended tail needs filtering.
  const bgp::RibSnapshot& fin = ribs.days.back();
  if (final_fold_valid_ && fin.day == final_day_number_ &&
      fin.entries.size() >= final_len_ &&
      detail::fold_entries(
          detail::kFoldSeed,
          std::span<const bgp::RouteEntry>{fin.entries}.first(final_len_)) ==
          final_entries_fold_) {
    pending_append_ = true;
  }
  pending_final_digest_ = detail::day_digest(fin);
  pending_ready_ = true;
  return true;
}

SanitizeResult IncrementalSanitizer::run_fast(const bgp::RibCollection& ribs,
                                              SanitizeResult&& previous,
                                              Outcome* outcome) {
  if (!pending_ready_) return run_full(ribs, outcome);
  pending_ready_ = false;

  const bgp::RibSnapshot& fin = ribs.days.back();
  SanitizeResult result;
  std::size_t rows_reused = 0;
  detail::FilterState state;
  state.dedup = std::move(dedup_post_);
  std::span<const bgp::RouteEntry> to_filter{fin.entries};

  if (pending_append_) {
    // Append path: the previous result IS the result for the prefix the
    // old final day covered; filter only the appended tail, continuing
    // the sequential fold from the post-run state.
    result = std::move(previous);
    rows_reused = result.paths.size();
    state.sample_counts = post_sample_counts_;
    to_filter = to_filter.subspan(final_len_);
  } else {
    // Replace path: rewind the post-run dedup set to the final-day
    // boundary by erasing exactly the keys the old final day inserted —
    // one per emitted suffix row (a final-day entry whose key already
    // existed was counted as a duplicate and emitted nothing). Must read
    // previous.paths BEFORE the move below.
    for (std::size_t i = head_rows_; i < previous.paths.size(); ++i) {
      const SanitizedPath& row = previous.paths[i];
      state.dedup.erase(
          detail::DedupKey{row.vp, row.prefix, row.path.to_string()});
    }
    result.clique = options_.clique;
    result.prefix_geo = std::move(previous.prefix_geo);
    // Rows are emitted day-major, so the previous result's head rows are
    // a prefix of `paths`; drop the old final day and keep the capacity.
    result.paths = std::move(previous.paths);
    result.paths.resize(head_rows_);
    rows_reused = head_rows_;
    result.stats = head_stats_;
    result.samples = head_samples_;
    state.sample_counts = head_sample_counts_;
  }

  // The stable set is unchanged, so the memoized covered set still
  // matches result.prefix_geo.
  detail::FilterWorld world{&pending_counts_, need_, options_.clique,
                            &result.prefix_geo, &covered_};
  detail::filter_day(fin.day, to_filter, world, *vps_, *registry_, options_,
                     state, result);

  // Re-arm the memo at the new final day. On the append path the new
  // fold continues the old one over the tail (`to_filter` is exactly the
  // appended entries) — the same resumption the detection relies on.
  dedup_post_ = std::move(state.dedup);
  post_sample_counts_ = state.sample_counts;
  final_entries_fold_ =
      pending_append_ ? detail::fold_entries(final_entries_fold_, to_filter)
                      : detail::fold_entries(detail::kFoldSeed, fin.entries);
  final_fold_valid_ = true;
  final_day_number_ = fin.day;
  final_len_ = fin.entries.size();
  day_digests_.back() = pending_final_digest_;
  counts_ = std::move(pending_counts_);
  delta_ready_ = options_.samples_per_category == 0 &&
                 final_day_keyed_by_route(ribs);

  if (outcome) {
    outcome->fast_path = true;
    outcome->days_reused = ribs.days.size() - 1;
    outcome->days_resanitized = 1;
    outcome->rows_reused = rows_reused;
  }
  pending_append_ = false;
  return result;
}

std::optional<IncrementalSanitizer::DeltaPlan> IncrementalSanitizer::plan_delta(
    int day, std::span<const bgp::RouteDelta> deltas,
    const SanitizeResult& current) const {
  if (!memo_valid_ || !delta_ready_ || options_.clique.empty() ||
      options_.samples_per_category != 0 || day != final_day_number_ ||
      current.paths.size() < head_rows_) {
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
    const auto it = counts_.find(prefix);
    const detail::PrefixDays before =
        it == counts_.end() ? detail::PrefixDays{0, day, 0} : it->second;
    const bool present = before.last_day == day && before.day_entries > 0;
    const std::uint32_t entries = present ? before.day_entries : 0;
    if (entries < t.olds) return std::nullopt;  // old entries the memo lacks
    const std::uint32_t after = entries - t.olds + t.news;
    const std::uint32_t head = before.count - (present ? 1u : 0u);
    const detail::PrefixDays patched{head + (after > 0 ? 1u : 0u), day, after};
    if ((patched.count >= need_) != (before.count >= need_)) {
      return std::nullopt;
    }
    scratch.emplace(prefix, patched);
    plan.counts.emplace_back(prefix, patched);
  }

  // ---- Re-filter each changed key's old and new entry with the batch
  // loop itself, against an empty dedup set: the memo then decides
  // duplicates, because within a route-keyed final day a key's dedup
  // identity can only collide with a head-day key or its own old one. ----
  const detail::FilterWorld world{&scratch, need_, options_.clique,
                                  &current.prefix_geo, &covered_};
  const auto filter_one = [&](const bgp::RouteDelta& d, const bgp::AsPath& path,
                              SanitizeResult& out) {
    const bgp::RouteEntry entry{d.vp, d.prefix, path};
    detail::FilterState state;
    detail::filter_day(day, std::span<const bgp::RouteEntry>{&entry, 1}, world,
                       *vps_, *registry_, options_, state, out);
  };
  const std::span<const SanitizedPath> final_rows =
      std::span<const SanitizedPath>{current.paths}.subspan(head_rows_);
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
      SanitizeResult old_entry;
      filter_one(*d, *d->old_path, old_entry);
      if (!remove_counts(plan.stats, old_entry.stats)) return std::nullopt;
      if (!old_entry.paths.empty()) {
        detail::DedupKey key{d->vp, d->prefix,
                             old_entry.paths.front().path.to_string()};
        if (has_row) {
          if (row->path != old_entry.paths.front().path) return std::nullopt;
          plan.erase.push_back(static_cast<std::uint32_t>(
              head_rows_ + static_cast<std::size_t>(row - final_rows.begin())));
          old_key = key;
          plan.dedup_erase.push_back(std::move(key));
        } else {
          // No row: the old entry repeated a head-day key.
          if (!dedup_post_.contains(key) ||
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
      SanitizeResult new_entry;
      filter_one(*d, *d->new_path, new_entry);
      add_counts(plan.stats, new_entry.stats);
      if (!new_entry.paths.empty()) {
        detail::DedupKey key{d->vp, d->prefix,
                             new_entry.paths.front().path.to_string()};
        if (key != old_key && dedup_post_.contains(key)) {
          ++plan.stats.duplicates_merged;  // the head-day key wins
        } else {
          plan.dedup_insert.push_back(std::move(key));
          plan.insert.push_back(std::move(new_entry.paths.front()));
        }
      }
    }
  }
  return plan;
}

IncrementalSanitizer::RowEdit IncrementalSanitizer::commit_delta(
    DeltaPlan&& plan, SanitizeResult& result, Outcome* outcome) {
  // Merge the surviving final-day rows with the added ones; both are in
  // (VP, prefix) order, so the patched day stays in that order.
  RowEdit edit;
  std::vector<SanitizedPath>& paths = result.paths;
  std::vector<SanitizedPath> tail;
  tail.reserve(paths.size() - head_rows_ - plan.erase.size() +
               plan.insert.size());
  std::size_t next_erase = 0;
  std::size_t next_insert = 0;
  const auto add_inserted_before = [&](const SanitizedPath* row) {
    while (next_insert < plan.insert.size() &&
           (row == nullptr ||
            route_less(plan.insert[next_insert].vp,
                       plan.insert[next_insert].prefix, row->vp, row->prefix))) {
      edit.inserted.push_back(
          static_cast<std::uint32_t>(head_rows_ + tail.size()));
      tail.push_back(std::move(plan.insert[next_insert++]));
    }
  };
  for (std::size_t i = head_rows_; i < paths.size(); ++i) {
    add_inserted_before(&paths[i]);
    if (next_erase < plan.erase.size() && plan.erase[next_erase] == i) {
      ++next_erase;
      continue;
    }
    tail.push_back(std::move(paths[i]));
  }
  add_inserted_before(nullptr);
  paths.resize(head_rows_);
  paths.insert(paths.end(), std::make_move_iterator(tail.begin()),
               std::make_move_iterator(tail.end()));
  edit.erased = std::move(plan.erase);
  result.stats = plan.stats;

  // Re-arm the memo at the patched final day. Erase before insert: a
  // key whose path changed but cleans to the same path is in both.
  for (const detail::DedupKey& key : plan.dedup_erase) dedup_post_.erase(key);
  for (detail::DedupKey& key : plan.dedup_insert) {
    dedup_post_.insert(std::move(key));
  }
  for (const auto& [prefix, days] : plan.counts) {
    if (days.count == 0) {
      counts_.erase(prefix);
    } else {
      counts_[prefix] = days;
    }
  }
  final_fold_valid_ = false;

  if (outcome) {
    // No day was re-filtered; the unchanged rows are the ones `edit`
    // does not name, not a leading prefix.
    outcome->fast_path = true;
    outcome->days_reused = day_digests_.size();
    outcome->days_resanitized = 0;
    outcome->rows_reused = 0;
  }
  return edit;
}

}  // namespace georank::sanitize
