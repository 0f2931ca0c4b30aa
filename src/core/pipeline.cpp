#include "core/pipeline.hpp"

#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>

#include "util/parallel_for.hpp"

namespace georank::core {

Pipeline::Pipeline(const geo::GeoDatabase& geo_db, const geo::VpGeolocator& vps,
                   const sanitize::AsnRegistry& registry,
                   const topo::AsGraph& relationships, PipelineConfig config)
    : geo_db_(&geo_db),
      vps_(&vps),
      registry_(&registry),
      relationships_(&relationships),
      config_(std::move(config)),
      rankings_(relationships, config_.hegemony),
      sanitizer_(geo_db, vps, registry, config_.sanitizer) {}

void Pipeline::load(const bgp::RibCollection& ribs) {
  // No parse phase on this path: the stats describe the CURRENT world,
  // so swap in an empty set rather than leaving a stale one visible.
  (void)swap_in(ribs, bgp::MrtParseStats{});
}

Pipeline::ApplyResult Pipeline::apply_updates(const bgp::RibCollection& ribs) {
  return swap_in(ribs, std::nullopt);
}

Pipeline::ApplyResult Pipeline::swap_in(const bgp::RibCollection& ribs,
                                        std::optional<bgp::MrtParseStats> stats) {
  const std::lock_guard<std::mutex> serial(cache_->load_serial);
  // Sanitize outside the reload lock (it is by far the expensive part),
  // then swap the world in exclusively so racing queries see either the
  // old state or the new one, never a mix. run_full also recaptures the
  // sanitizer memo apply_delta builds on.
  sanitize::SanitizeResult result = sanitizer_.run_full(ribs);
  const std::lock_guard<std::mutex> gate(cache_->reload_gate);
  const std::unique_lock<std::shared_mutex> reload(cache_->reload);
  if (stats) parse_stats_ = std::move(*stats);
  sanitized_ = std::move(result);
  ApplyResult out;
  out.days_resanitized = ribs.days.size();
  const std::span<const sanitize::SanitizedPath> paths{sanitized_->paths};
  if (store_.has_value() && !stats) {
    const ShardedPathStore::RebuildStats rebuilt = store_->rebuild(paths);
    out.shards_kept = rebuilt.shards_kept;
    out.shards_rebuilt = rebuilt.shards_rebuilt;
  } else {
    // A load frees the old store before building the new one, so the
    // two never coexist; apply_updates keeps unchanged shards instead.
    store_.emplace(paths);
    out.shards_rebuilt = store_->shards().size();
  }
  rebuild_geo_evidence();
  const EvictStats evicted = evict_changed_countries();
  out.memos_evicted = evicted.evicted;
  out.memos_kept = evicted.kept;
  out.country_memos_evicted = evicted.country_evicted;
  out.country_memos_kept = evicted.country_kept;
  return out;
}

std::optional<Pipeline::ApplyResult> Pipeline::apply_delta(
    int day, std::span<const bgp::RouteDelta> deltas) {
  const std::lock_guard<std::mutex> serial(cache_->load_serial);
  if (!sanitized_.has_value() || !store_.has_value()) return std::nullopt;
  // Planning only reads the world, and load_serial already excludes
  // every writer, so it runs outside the reload lock; queries wait only
  // for the patch below.
  std::optional<sanitize::IncrementalSanitizer::DeltaPlan> plan =
      sanitizer_.plan_delta(day, deltas, *sanitized_);
  if (!plan) return std::nullopt;

  const std::lock_guard<std::mutex> gate(cache_->reload_gate);
  const std::unique_lock<std::shared_mutex> reload(cache_->reload);
  for (std::uint32_t row : plan->erase) {
    count_geo_evidence_row(sanitized_->paths[row], /*added=*/false);
  }
  const sanitize::IncrementalSanitizer::RowEdit edit =
      sanitizer_.commit_delta(std::move(*plan), *sanitized_);
  for (std::uint32_t row : edit.inserted) {
    count_geo_evidence_row(sanitized_->paths[row], /*added=*/true);
  }
  const ShardedPathStore::RebuildStats patched = store_->patch(
      std::span<const sanitize::SanitizedPath>{sanitized_->paths}, edit.erased,
      edit.inserted);

  ApplyResult out;
  out.sanitize_fast_path = true;
  out.shards_kept = patched.shards_kept;
  out.shards_rebuilt = patched.shards_rebuilt;
  const EvictStats evicted = evict_changed_countries();
  out.memos_evicted = evicted.evicted;
  out.memos_kept = evicted.kept;
  out.country_memos_evicted = evicted.country_evicted;
  out.country_memos_kept = evicted.country_kept;
  return out;
}

Pipeline::Checkpoint Pipeline::checkpoint() const {
  // load_serial excludes a concurrent load/apply/restore wholesale (they
  // hold it for their full duration, including the sanitizer-memo writes
  // that happen outside the reload lock); the shared reload hold then
  // orders this against nothing, but keeps the lock discipline uniform
  // with every other world read.
  const std::lock_guard<std::mutex> serial(cache_->load_serial);
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::checkpoint()");
  Checkpoint chk;
  chk.sanitized_ = sanitized_;
  chk.store_ = store_->clone();
  chk.parse_stats_ = parse_stats_;
  chk.geo_evidence_ = geo_evidence_;
  chk.country_digests_ = country_digests_;
  chk.outbound_digests_ = outbound_digests_;
  {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    chk.cache_country_ = cache_->country;
    chk.cache_outbound_ = cache_->outbound;
    chk.cache_health_ = cache_->health;
  }
  return chk;
}

Pipeline::ApplyResult Pipeline::restore(const Checkpoint& checkpoint) {
  if (!checkpoint.sanitized_.has_value()) {
    throw std::logic_error{"Pipeline::restore(): empty checkpoint"};
  }
  const std::lock_guard<std::mutex> serial(cache_->load_serial);
  // The sanitizer memo describes the outgoing world. It is only ever
  // read under load_serial, so it can be dropped outside the reload
  // lock; apply_delta() declines until the next full run re-arms it.
  sanitizer_.invalidate();
  const std::lock_guard<std::mutex> gate(cache_->reload_gate);
  const std::unique_lock<std::shared_mutex> reload(cache_->reload);
  parse_stats_ = checkpoint.parse_stats_;
  sanitized_ = checkpoint.sanitized_;
  store_ = checkpoint.store_.clone();

  ApplyResult out;
  // Diff the checkpoint against the outgoing world for the counters:
  // a shard whose digest already matched was untouched by the swap.
  const auto unchanged =
      [](const std::unordered_map<std::uint16_t, std::uint64_t>& outgoing,
         const std::unordered_map<std::uint16_t, std::uint64_t>& restored,
         std::uint16_t key) {
        const auto now = restored.find(key);
        const auto then = outgoing.find(key);
        return now != restored.end() && then != outgoing.end() &&
               now->second == then->second;
      };
  for (const PathShard& shard : store_->shards()) {
    if (unchanged(outbound_digests_, checkpoint.outbound_digests_,
                  shard.country().raw())) {
      ++out.shards_kept;
    } else {
      ++out.shards_rebuilt;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    const auto evicted_from = [&](const auto& map, const auto& digests) {
      std::size_t evicted = 0;
      for (const auto& entry : map) {
        if (!unchanged(digests, checkpoint.country_digests_, entry.first)) {
          ++evicted;
        }
      }
      return evicted;
    };
    out.country_memos_evicted =
        evicted_from(cache_->country, country_digests_);
    out.memos_evicted = out.country_memos_evicted +
                        evicted_from(cache_->health, country_digests_);
    for (const auto& entry : cache_->outbound) {
      if (!unchanged(outbound_digests_, checkpoint.outbound_digests_,
                     entry.first)) {
        ++out.memos_evicted;
      }
    }
    cache_->country = checkpoint.cache_country_;
    cache_->outbound = checkpoint.cache_outbound_;
    cache_->health = checkpoint.cache_health_;
    out.country_memos_kept = cache_->country.size();
    out.memos_kept = cache_->country.size() + cache_->outbound.size() +
                     cache_->health.size();
  }
  geo_evidence_ = checkpoint.geo_evidence_;
  // Rebuilt by the next load() or apply_updates(); apply_delta()
  // declines until then.
  prefix_rows_.clear();
  country_digests_ = checkpoint.country_digests_;
  outbound_digests_ = checkpoint.outbound_digests_;
  return out;
}

void Pipeline::rebuild_geo_evidence() {
  // Geolocation evidence for the confidence annotation: accepted weight
  // once per distinct sanitized prefix, plus the no-consensus weight each
  // plurality country lost.
  geo_evidence_.clear();
  prefix_rows_.clear();
  for (const sanitize::SanitizedPath& row : sanitized_->paths) {
    count_geo_evidence_row(row, /*added=*/true);
  }
  for (const auto& [country, tally] :
       sanitized_->prefix_geo.no_consensus_by_plurality()) {
    GeoEvidence& evidence = geo_evidence_[country];
    evidence.rejected += tally.addresses;
    evidence.rejected_prefixes += tally.prefixes;
  }
}

void Pipeline::count_geo_evidence_row(const sanitize::SanitizedPath& row,
                                      bool added) {
  if (added) {
    if (++prefix_rows_[row.prefix] == 1) {
      geo_evidence_[row.prefix_country].accepted += row.weight;
    }
    return;
  }
  const auto it = prefix_rows_.find(row.prefix);
  if (--it->second == 0) {
    prefix_rows_.erase(it);
    geo_evidence_[row.prefix_country].accepted -= row.weight;
  }
}

Pipeline::EvictStats Pipeline::evict_changed_countries() {
  // Per-country digests of the NEW world. The country-query digest folds
  // geo evidence in because CountryMetrics.confidence/geo_consensus are
  // computed from it; outbound metrics only see the shard.
  std::unordered_map<std::uint16_t, std::uint64_t> outbound_digests;
  std::unordered_map<std::uint16_t, std::uint64_t> country_digests;
  outbound_digests.reserve(store_->shards().size());
  country_digests.reserve(store_->shards().size());
  for (const PathShard& shard : store_->shards()) {
    const std::uint16_t key = shard.country().raw();
    outbound_digests.emplace(key, shard.digest());
    std::uint64_t d = shard.digest();
    const auto it = geo_evidence_.find(shard.country());
    const GeoEvidence evidence =
        it == geo_evidence_.end() ? GeoEvidence{} : it->second;
    d ^= evidence.accepted + 0x9e3779b97f4a7c15ull + (d << 6) + (d >> 2);
    d ^= evidence.rejected + 0x9e3779b97f4a7c15ull + (d << 6) + (d >> 2);
    d ^= evidence.rejected_prefixes + 0x9e3779b97f4a7c15ull + (d << 6) +
         (d >> 2);
    country_digests.emplace(key, d);
  }

  // Evict exactly the entries whose digest changed or whose country no
  // longer has a shard (which also covers cached results for countries
  // that never had one — those were computed against no evidence and are
  // cheap to redo). Everything else stays warm across the reload.
  const auto changed = [](const std::unordered_map<std::uint16_t, std::uint64_t>&
                              previous,
                          const std::unordered_map<std::uint16_t, std::uint64_t>&
                              current,
                          std::uint16_t key) {
    const auto now = current.find(key);
    const auto then = previous.find(key);
    return now == current.end() || then == previous.end() ||
           now->second != then->second;
  };
  EvictStats stats;
  {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    const std::size_t before = cache_->country.size() +
                               cache_->outbound.size() + cache_->health.size();
    const std::size_t country_before = cache_->country.size();
    std::erase_if(cache_->country, [&](const auto& entry) {
      return changed(country_digests_, country_digests, entry.first);
    });
    stats.country_kept = cache_->country.size();
    stats.country_evicted = country_before - stats.country_kept;
    std::erase_if(cache_->outbound, [&](const auto& entry) {
      return changed(outbound_digests_, outbound_digests, entry.first);
    });
    // Health reads the shard rows plus the geo evidence, both of which
    // the country digest folds in.
    std::erase_if(cache_->health, [&](const auto& entry) {
      return changed(country_digests_, country_digests, entry.first);
    });
    stats.kept = cache_->country.size() + cache_->outbound.size() +
                 cache_->health.size();
    stats.evicted = before - stats.kept;
  }
  country_digests_ = std::move(country_digests);
  outbound_digests_ = std::move(outbound_digests);
  return stats;
}

void Pipeline::load_text(std::string_view mrt_text) {
  bgp::MrtStreamLoader loader{config_.ingest};
  bgp::RibCollection ribs = loader.load_text(mrt_text);
  (void)swap_in(ribs, loader.stats());
}

void Pipeline::load_stream(std::istream& is) {
  bgp::MrtStreamLoader loader{config_.ingest};
  bgp::RibCollection ribs = loader.load(is);
  (void)swap_in(ribs, loader.stats());
}

bool Pipeline::loaded() const {
  // Unsynchronized, this is a racy read of an optional being emplaced by
  // load() — ThreadSanitizer flagged it against the reload stress test.
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  return sanitized_.has_value();
}

void Pipeline::require_loaded(const char* where) const {
  if (!sanitized_) {
    throw std::logic_error{std::string{where} + ": no RIBs loaded"};
  }
}

const sanitize::SanitizeResult& Pipeline::sanitized() const {
  require_loaded("Pipeline::sanitized()");
  return *sanitized_;
}

const ShardedPathStore& Pipeline::store() const {
  require_loaded("Pipeline::store()");
  return *store_;
}

void Pipeline::clear_caches() const {
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  cache_->country.clear();
  cache_->outbound.clear();
  cache_->health.clear();
}

Pipeline::CacheStats Pipeline::cache_stats() const {
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  return CacheStats{cache_->country.size(), cache_->outbound.size(),
                    cache_->health.size()};
}

Pipeline::GeoEvidence Pipeline::geo_evidence(geo::CountryCode country) const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::geo_evidence()");
  auto it = geo_evidence_.find(country);
  return it == geo_evidence_.end() ? GeoEvidence{} : it->second;
}

CountryMetrics Pipeline::country_uncached(geo::CountryCode country) const {
  CountryMetrics metrics = rankings_.compute(*store_, country);
  auto it = geo_evidence_.find(country);
  GeoEvidence evidence = it == geo_evidence_.end() ? GeoEvidence{} : it->second;
  metrics.geo_consensus = DegradationPolicy::geo_consensus_share(
      evidence.accepted, evidence.rejected);
  metrics.confidence = config_.degradation.country_tier(
      metrics.national_vps, metrics.international_vps, evidence.accepted,
      evidence.rejected);
  return metrics;
}

CountryMetrics Pipeline::country(geo::CountryCode country) const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::country()");
  {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->country.find(country.raw());
    if (it != cache_->country.end()) return it->second;
  }
  CountryMetrics metrics = country_uncached(country);
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  return cache_->country.try_emplace(country.raw(), std::move(metrics))
      .first->second;
}

OutboundMetrics Pipeline::outbound(geo::CountryCode country) const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::outbound()");
  {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->outbound.find(country.raw());
    if (it != cache_->outbound.end()) return it->second;
  }
  OutboundMetrics metrics = rankings_.compute_outbound(*store_, country);
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  return cache_->outbound.try_emplace(country.raw(), std::move(metrics))
      .first->second;
}

CountryHealth Pipeline::country_health_uncached(
    geo::CountryCode country) const {
  GeoEvidence evidence;
  if (const auto it = geo_evidence_.find(country); it != geo_evidence_.end()) {
    evidence = it->second;
  }
  return shard_health(country, store_->shard(country),
                      static_cast<std::size_t>(evidence.rejected_prefixes),
                      evidence.rejected, config_.degradation);
}

CountryHealth Pipeline::country_health(geo::CountryCode country) const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::country_health()");
  {
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->health.find(country.raw());
    if (it != cache_->health.end()) return it->second;
  }
  CountryHealth health = country_health_uncached(country);
  const std::lock_guard<std::mutex> lock(cache_->mutex);
  return cache_->health.try_emplace(country.raw(), health).first->second;
}

template <class Value, class Memo, class Compute>
std::vector<Value> Pipeline::census_of(const Memo& memo, const char* where,
                                       const Compute& compute) const {
  // Copy the census domain and resolve memo hits under the reload lock,
  // then release it before fanning out the misses: workers each take
  // the shared lock inside `compute`, and holding it here across the
  // parallel region could deadlock against a writer-preferring load().
  // Each country is therefore atomic against a reload, the census as a
  // whole is not.
  std::vector<geo::CountryCode> countries;
  std::vector<std::uint64_t> costs;
  std::vector<Value> out;
  std::vector<std::size_t> misses;
  {
    cache_->wait_for_writers();
    const std::shared_lock<std::shared_mutex> reload(cache_->reload);
    require_loaded(where);
    countries = store_->countries();
    costs = store_->census_costs();
    out.resize(countries.size());
    const std::lock_guard<std::mutex> lock(cache_->mutex);
    for (std::size_t i = 0; i < countries.size(); ++i) {
      const auto it = memo.find(countries[i].raw());
      if (it == memo.end()) {
        misses.push_back(i);
      } else {
        out[i] = it->second;
      }
    }
  }

  // Disjoint-slot writes keyed by the (sorted) country list: the output
  // is a pure function of the inputs, independent of scheduling, so the
  // census is identical for any GEORANK_THREADS value. The costed
  // fan-out hands out the biggest missing shards first so one giant
  // country cannot end up as the last item on a single worker; with no
  // misses nothing is spawned.
  std::vector<std::uint64_t> miss_costs;
  miss_costs.reserve(misses.size());
  for (std::size_t i : misses) miss_costs.push_back(costs[i]);
  util::parallel_for_costed(miss_costs, [&](std::size_t k) {
    out[misses[k]] = compute(countries[misses[k]]);
  });
  return out;
}

std::vector<CountryMetrics> Pipeline::all_countries() const {
  return census_of<CountryMetrics>(
      cache_->country, "Pipeline::all_countries()",
      [this](geo::CountryCode cc) { return country(cc); });
}

std::vector<CountryHealth> Pipeline::all_country_health() const {
  return census_of<CountryHealth>(
      cache_->health, "Pipeline::all_country_health()",
      [this](geo::CountryCode cc) { return country_health(cc); });
}

rank::Ranking Pipeline::global_cone_by_as_count() const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::global_cone_by_as_count()");
  // Global queries run over the sanitized rows directly (original path
  // order, no cross-shard merge).
  rank::CustomerCone cone{*relationships_};
  return cone.compute(sanitize::PathsView{sanitized_->paths}).by_as_count();
}

rank::Ranking Pipeline::global_cone_by_addresses() const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::global_cone_by_addresses()");
  rank::CustomerCone cone{*relationships_};
  return cone.compute(sanitize::PathsView{sanitized_->paths}).by_addresses();
}

rank::Ranking Pipeline::global_hegemony() const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::global_hegemony()");
  rank::Hegemony hegemony{config_.hegemony};
  return hegemony.compute(sanitize::PathsView{sanitized_->paths}).ranking();
}

rank::Ranking Pipeline::ahc(const rank::AsRegistry& registry,
                            geo::CountryCode country) const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::ahc()");
  rank::AhcRanking ahc{registry, config_.hegemony};
  return ahc.compute(sanitize::PathsView{sanitized_->paths}, country);
}

rank::Ranking Pipeline::cti(geo::CountryCode country) const {
  cache_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(cache_->reload);
  require_loaded("Pipeline::cti()");
  CountryView view = store_->international_view(country);
  rank::CtiRanking cti{*relationships_};
  return cti.compute(view.paths());
}

}  // namespace georank::core
