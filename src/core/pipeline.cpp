#include "core/pipeline.hpp"

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/parallel_for.hpp"

namespace georank::core {

/// Everything one load produces. A load or apply_updates builds a World
/// whole and publishes it by pointer; a Checkpoint shares the pointer.
/// After publication only two things write to a World: queries fill its
/// memo, and apply_delta patches it in place, under the exclusive reload
/// lock and only while no Checkpoint shares it.
struct World {
  using Digests = std::unordered_map<std::uint16_t, std::uint64_t>;
  /// Memoized per-country results, keyed by CountryCode::raw(). A value
  /// is a pure function of its country's digest, so a later world whose
  /// digest for the country is unchanged shares the pointer.
  template <class Value>
  using MemoMap = std::unordered_map<std::uint16_t, std::shared_ptr<const Value>>;
  struct MemoMaps {
    MemoMap<CountryMetrics> country;
    MemoMap<OutboundMetrics> outbound;
    MemoMap<CountryHealth> health;
  };

  World(sanitize::SanitizeResult result, bgp::MrtParseStats stats)
      : sanitized(std::move(result)),
        store(sanitized.paths),
        parse_stats(std::move(stats)) {}

  sanitize::SanitizeResult sanitized;
  ShardedPathStore store;
  bgp::MrtParseStats parse_stats;
  std::unordered_map<geo::CountryCode, Pipeline::GeoEvidence, geo::CountryCodeHash>
      geo_evidence;
  // Accepted rows per distinct sanitized prefix: a prefix's accepted
  // weight counts toward its country while it has at least one row.
  // apply_delta adjusts these (and a prefix's country tally when its
  // count leaves or reaches zero) instead of rescanning.
  std::unordered_map<bgp::Prefix, std::uint32_t, bgp::PrefixHash> prefix_rows;
  // Per-country content digests. `country_digests` folds geo evidence
  // in (CountryMetrics.confidence and health depend on it);
  // `outbound_digests` is the raw shard digest.
  Digests country_digests;
  Digests outbound_digests;
  // Queries hold the reload lock shared and take `memo_mutex` for each
  // map access (never while computing a metric, so concurrent
  // all_countries() workers do not serialize on each other). Writers
  // hold the reload lock exclusively, which excludes every query, and
  // use the maps directly.
  std::mutex memo_mutex;
  MemoMaps memo;
};

namespace {

using Digests = World::Digests;
template <class Value>
using MemoMap = World::MemoMap<Value>;

Pipeline::GeoEvidence evidence_of(const World& world, geo::CountryCode country) {
  const auto it = world.geo_evidence.find(country);
  return it == world.geo_evidence.end() ? Pipeline::GeoEvidence{} : it->second;
}

/// Moves one row's prefix in or out of the per-prefix tallies behind the
/// geo evidence.
void count_geo_evidence_row(World& world, const sanitize::SanitizedPath& row,
                            bool added) {
  if (added) {
    if (++world.prefix_rows[row.prefix] == 1) {
      world.geo_evidence[row.prefix_country].accepted += row.weight;
    }
    return;
  }
  const auto it = world.prefix_rows.find(row.prefix);
  if (--it->second == 0) {
    world.prefix_rows.erase(it);
    world.geo_evidence[row.prefix_country].accepted -= row.weight;
  }
}

/// Recomputes both digest maps from the world's store and geo evidence.
void digest_countries(World& world) {
  Digests outbound_digests;
  Digests country_digests;
  outbound_digests.reserve(world.store.shards().size());
  country_digests.reserve(world.store.shards().size());
  for (const PathShard& shard : world.store.shards()) {
    const std::uint16_t key = shard.country().raw();
    outbound_digests.emplace(key, shard.digest());
    std::uint64_t d = shard.digest();
    const Pipeline::GeoEvidence evidence = evidence_of(world, shard.country());
    d ^= evidence.accepted + 0x9e3779b97f4a7c15ull + (d << 6) + (d >> 2);
    d ^= evidence.rejected + 0x9e3779b97f4a7c15ull + (d << 6) + (d >> 2);
    d ^= evidence.rejected_prefixes + 0x9e3779b97f4a7c15ull + (d << 6) +
         (d >> 2);
    country_digests.emplace(key, d);
  }
  world.country_digests = std::move(country_digests);
  world.outbound_digests = std::move(outbound_digests);
}

/// Fills a freshly built world's geo evidence (accepted weight once per
/// distinct sanitized prefix, plus the no-consensus weight each
/// plurality country lost), per-prefix row counts and digests.
void derive(World& world) {
  for (const sanitize::SanitizedPath& row : world.sanitized.paths) {
    count_geo_evidence_row(world, row, /*added=*/true);
  }
  for (const auto& [country, tally] :
       world.sanitized.prefix_geo.no_consensus_by_plurality()) {
    Pipeline::GeoEvidence& evidence = world.geo_evidence[country];
    evidence.rejected += tally.addresses;
    evidence.rejected_prefixes += tally.prefixes;
  }
  digest_countries(world);
}

/// Whether `key` has the same digest in both worlds; a country missing
/// from either side has changed.
bool same_digest(const Digests& then, const Digests& now, std::uint16_t key) {
  const auto t = then.find(key);
  const auto n = now.find(key);
  return t != then.end() && n != now.end() && t->second == n->second;
}

/// Counts the entries of `outgoing` whose digest changed from `then` to
/// `now`; with `into`, copies every other entry there.
template <class Value>
std::size_t evict(const MemoMap<Value>& outgoing, const Digests& then,
                  const Digests& now, MemoMap<Value>* into) {
  std::size_t evicted = 0;
  // lint: ordered(per-entry digest check into a keyed map; no order reaches a result)
  for (const auto& [key, value] : outgoing) {
    if (!same_digest(then, now, key)) {
      ++evicted;
    } else if (into != nullptr) {
      into->emplace(key, value);
    }
  }
  return evicted;
}

/// What a writer kept when `next` replaces a world with the digests
/// `country_then`/`outbound_then` and the memo `outgoing`, by the one
/// rule every writer counts by: a shard or memo entry is kept when its
/// country's digest is unchanged. With `carry`, the kept entries are
/// copied into next's (empty) memo; memos_kept counts next's entries.
Pipeline::ApplyResult settle(const Digests& country_then,
                             const Digests& outbound_then,
                             const World::MemoMaps& outgoing, World& next,
                             bool carry) {
  Pipeline::ApplyResult out;
  for (const PathShard& shard : next.store.shards()) {
    if (same_digest(outbound_then, next.outbound_digests, shard.country().raw())) {
      ++out.shards_kept;
    } else {
      ++out.shards_rebuilt;
    }
  }
  World::MemoMaps& memo = next.memo;
  // Health reads the shard rows plus the geo evidence, both of which
  // the country digest folds in.
  out.country_memos_evicted = evict(outgoing.country, country_then,
                                    next.country_digests,
                                    carry ? &memo.country : nullptr);
  out.memos_evicted =
      out.country_memos_evicted +
      evict(outgoing.health, country_then, next.country_digests,
            carry ? &memo.health : nullptr) +
      evict(outgoing.outbound, outbound_then, next.outbound_digests,
            carry ? &memo.outbound : nullptr);
  out.country_memos_kept = memo.country.size();
  out.memos_kept = memo.country.size() + memo.outbound.size() + memo.health.size();
  return out;
}

/// settle() against the world `next` replaces (none before the first
/// load).
Pipeline::ApplyResult settle_from(const World* outgoing, World& next, bool carry) {
  if (outgoing == nullptr) return settle({}, {}, {}, next, carry);
  return settle(outgoing->country_digests, outgoing->outbound_digests,
                outgoing->memo, next, carry);
}

/// The memoizing body of country(), outbound() and country_health(),
/// called with the reload lock held shared: a hit returns the shared
/// value; a miss computes outside the memo mutex and keeps whichever
/// racing miss stored first (they compute the same value).
template <class Value, class Compute>
Value memoized(World& world, MemoMap<Value> World::MemoMaps::*map,
               geo::CountryCode country, const Compute& compute) {
  {
    const std::lock_guard<std::mutex> lock(world.memo_mutex);
    const MemoMap<Value>& memo = world.memo.*map;
    if (const auto it = memo.find(country.raw()); it != memo.end()) {
      return *it->second;
    }
  }
  std::shared_ptr<const Value> value = std::make_shared<const Value>(compute());
  const std::lock_guard<std::mutex> lock(world.memo_mutex);
  return *(world.memo.*map).try_emplace(country.raw(), std::move(value)).first->second;
}

const bgp::MrtParseStats kNoParseStats{};

}  // namespace

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
  const std::lock_guard<std::mutex> serial(locks_->load_serial);
  // Build the whole next world outside the reload lock — sanitize is by
  // far the expensive part, then the store — while queries keep reading
  // the current one. load_serial excludes every other writer, so world_
  // is stable here. run_full also recaptures the sanitizer memo
  // apply_delta builds on.
  if (!stats) stats = world_ ? world_->parse_stats : bgp::MrtParseStats{};
  auto next = std::make_shared<World>(sanitizer_.run_full(ribs), std::move(*stats));
  derive(*next);

  std::shared_ptr<World> outgoing;  // freed after the locks below
  const std::lock_guard<std::mutex> gate(locks_->reload_gate);
  const std::unique_lock<std::shared_mutex> reload(locks_->reload);
  ApplyResult out = settle_from(world_.get(), *next, /*carry=*/true);
  out.days_resanitized = ribs.days.size();
  outgoing = std::exchange(world_, std::move(next));
  return out;
}

std::optional<Pipeline::ApplyResult> Pipeline::apply_delta(
    int day, std::span<const bgp::RouteDelta> deltas) {
  const std::lock_guard<std::mutex> serial(locks_->load_serial);
  // A Checkpoint shares the world, so patching it would rewrite the
  // checkpointed world too. Checkpoints are only made under load_serial
  // and queries never copy world_, so the count is exact here.
  if (world_ == nullptr || world_.use_count() != 1) return std::nullopt;
  World& world = *world_;
  // Planning only reads the world, and load_serial already excludes
  // every writer, so it runs outside the reload lock; queries wait only
  // for the patch below.
  std::optional<sanitize::IncrementalSanitizer::DeltaPlan> plan =
      sanitizer_.plan_delta(day, deltas, world.sanitized);
  if (!plan) return std::nullopt;

  const std::lock_guard<std::mutex> gate(locks_->reload_gate);
  const std::unique_lock<std::shared_mutex> reload(locks_->reload);
  for (std::uint32_t row : plan->erase) {
    count_geo_evidence_row(world, world.sanitized.paths[row], /*added=*/false);
  }
  const sanitize::IncrementalSanitizer::RowEdit edit =
      sanitizer_.commit_delta(std::move(*plan), world.sanitized);
  for (std::uint32_t row : edit.inserted) {
    count_geo_evidence_row(world, world.sanitized.paths[row], /*added=*/true);
  }
  world.store.patch(std::span<const sanitize::SanitizedPath>{world.sanitized.paths},
                    edit.erased, edit.inserted);

  const Digests country_then = std::move(world.country_digests);
  const Digests outbound_then = std::move(world.outbound_digests);
  const World::MemoMaps outgoing = std::move(world.memo);
  world.memo = {};
  digest_countries(world);
  ApplyResult out = settle(country_then, outbound_then, outgoing, world, /*carry=*/true);
  out.sanitize_fast_path = true;
  return out;
}

Pipeline::Checkpoint Pipeline::checkpoint() const {
  // load_serial excludes every writer (they swap world_ only while
  // holding it), and keeps apply_delta's use_count() check exact.
  const std::lock_guard<std::mutex> serial(locks_->load_serial);
  require_loaded("Pipeline::checkpoint()");
  Checkpoint chk;
  chk.world_ = world_;
  return chk;
}

Pipeline::ApplyResult Pipeline::restore(const Checkpoint& checkpoint) {
  if (checkpoint.world_ == nullptr) {
    throw std::logic_error{"Pipeline::restore(): empty checkpoint"};
  }
  const std::lock_guard<std::mutex> serial(locks_->load_serial);
  // The sanitizer memo describes the outgoing world. It is only ever
  // read under load_serial, so it can be dropped outside the reload
  // lock; apply_delta() declines until the next full run re-arms it.
  sanitizer_.invalidate();
  std::shared_ptr<World> outgoing;  // freed after the locks below
  const std::lock_guard<std::mutex> gate(locks_->reload_gate);
  const std::unique_lock<std::shared_mutex> reload(locks_->reload);
  const ApplyResult out =
      settle_from(world_.get(), *checkpoint.world_, /*carry=*/false);
  outgoing = std::exchange(world_, checkpoint.world_);
  return out;
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
  // Unsynchronized, this is a racy read of the pointer a load() swaps —
  // ThreadSanitizer flagged it against the reload stress test.
  locks_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(locks_->reload);
  return world_ != nullptr;
}

void Pipeline::require_loaded(const char* where) const {
  if (world_ == nullptr) {
    throw std::logic_error{std::string{where} + ": no RIBs loaded"};
  }
}

std::shared_lock<std::shared_mutex> Pipeline::read_lock(const char* where) const {
  locks_->wait_for_writers();
  std::shared_lock<std::shared_mutex> reload(locks_->reload);
  require_loaded(where);
  return reload;
}

const sanitize::SanitizeResult& Pipeline::sanitized() const {
  require_loaded("Pipeline::sanitized()");
  return world_->sanitized;
}

const ShardedPathStore& Pipeline::store() const {
  require_loaded("Pipeline::store()");
  return world_->store;
}

const bgp::MrtParseStats& Pipeline::parse_stats() const noexcept {
  return world_ == nullptr ? kNoParseStats : world_->parse_stats;
}

void Pipeline::clear_caches() const {
  locks_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(locks_->reload);
  if (world_ == nullptr) return;
  const std::lock_guard<std::mutex> lock(world_->memo_mutex);
  world_->memo = {};
}

Pipeline::CacheStats Pipeline::cache_stats() const {
  locks_->wait_for_writers();
  const std::shared_lock<std::shared_mutex> reload(locks_->reload);
  if (world_ == nullptr) return {};
  const std::lock_guard<std::mutex> lock(world_->memo_mutex);
  const World::MemoMaps& memo = world_->memo;
  return CacheStats{memo.country.size(), memo.outbound.size(), memo.health.size()};
}

Pipeline::GeoEvidence Pipeline::geo_evidence(geo::CountryCode country) const {
  const auto reading = read_lock("Pipeline::geo_evidence()");
  return evidence_of(*world_, country);
}

CountryMetrics Pipeline::country(geo::CountryCode country) const {
  const auto reading = read_lock("Pipeline::country()");
  return memoized(*world_, &World::MemoMaps::country, country, [&] {
    CountryMetrics metrics = rankings_.compute(world_->store, country);
    const GeoEvidence evidence = evidence_of(*world_, country);
    metrics.geo_consensus = DegradationPolicy::geo_consensus_share(
        evidence.accepted, evidence.rejected);
    metrics.confidence = config_.degradation.country_tier(
        metrics.national_vps, metrics.international_vps, evidence.accepted,
        evidence.rejected);
    return metrics;
  });
}

OutboundMetrics Pipeline::outbound(geo::CountryCode country) const {
  const auto reading = read_lock("Pipeline::outbound()");
  return memoized(*world_, &World::MemoMaps::outbound, country, [&] {
    return rankings_.compute_outbound(world_->store, country);
  });
}

CountryHealth Pipeline::country_health(geo::CountryCode country) const {
  const auto reading = read_lock("Pipeline::country_health()");
  return memoized(*world_, &World::MemoMaps::health, country, [&] {
    // core::shard_health over the country's shard and attributed
    // rejections (the worker robust::compute_health shares).
    const GeoEvidence evidence = evidence_of(*world_, country);
    return shard_health(country, world_->store.shard(country),
                        static_cast<std::size_t>(evidence.rejected_prefixes),
                        evidence.rejected, config_.degradation);
  });
}

template <class Value, class Map, class Compute>
std::vector<Value> Pipeline::census_of(Map map, const char* where,
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
    const auto reading = read_lock(where);
    World& world = *world_;
    countries = world.store.countries();
    costs = world.store.census_costs();
    out.resize(countries.size());
    const std::lock_guard<std::mutex> lock(world.memo_mutex);
    const auto& memo = world.memo.*map;
    for (std::size_t i = 0; i < countries.size(); ++i) {
      const auto it = memo.find(countries[i].raw());
      if (it == memo.end()) {
        misses.push_back(i);
      } else {
        out[i] = *it->second;
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
      &World::MemoMaps::country, "Pipeline::all_countries()",
      [this](geo::CountryCode cc) { return country(cc); });
}

std::vector<CountryHealth> Pipeline::all_country_health() const {
  return census_of<CountryHealth>(
      &World::MemoMaps::health, "Pipeline::all_country_health()",
      [this](geo::CountryCode cc) { return country_health(cc); });
}

rank::Ranking Pipeline::global_cone_by_as_count() const {
  const auto reading = read_lock("Pipeline::global_cone_by_as_count()");
  // Global queries run over the sanitized rows directly (original path
  // order, no cross-shard merge).
  rank::CustomerCone cone{*relationships_};
  return cone.compute(sanitize::PathsView{world_->sanitized.paths}).by_as_count();
}

rank::Ranking Pipeline::global_cone_by_addresses() const {
  const auto reading = read_lock("Pipeline::global_cone_by_addresses()");
  rank::CustomerCone cone{*relationships_};
  return cone.compute(sanitize::PathsView{world_->sanitized.paths}).by_addresses();
}

rank::Ranking Pipeline::global_hegemony() const {
  const auto reading = read_lock("Pipeline::global_hegemony()");
  rank::Hegemony hegemony{config_.hegemony};
  return hegemony.compute(sanitize::PathsView{world_->sanitized.paths}).ranking();
}

rank::Ranking Pipeline::ahc(const rank::AsRegistry& registry,
                            geo::CountryCode country) const {
  const auto reading = read_lock("Pipeline::ahc()");
  rank::AhcRanking ahc{registry, config_.hegemony};
  return ahc.compute(sanitize::PathsView{world_->sanitized.paths}, country);
}

rank::Ranking Pipeline::cti(geo::CountryCode country) const {
  const auto reading = read_lock("Pipeline::cti()");
  CountryView view = world_->store.international_view(country);
  rank::CtiRanking cti{*relationships_};
  return cti.compute(view.paths());
}

}  // namespace georank::core
