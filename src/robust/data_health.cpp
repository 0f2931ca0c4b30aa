#include "robust/data_health.hpp"

#include <algorithm>
#include <set>

#include "core/pipeline.hpp"
#include "core/sharded_path_store.hpp"
#include "util/parallel_for.hpp"

namespace georank::robust {

namespace {

struct Accumulator {
  std::set<bgp::VpId> national_vps;
  std::set<bgp::VpId> international_vps;
  std::set<bgp::Prefix> prefixes;
  std::uint64_t geolocated_addresses = 0;
  std::size_t no_consensus_prefixes = 0;
  std::uint64_t no_consensus_addresses = 0;
};

}  // namespace

const core::CountryHealth* HealthReport::find(geo::CountryCode country) const {
  auto it = std::lower_bound(
      countries.begin(), countries.end(), country,
      [](const core::CountryHealth& h, geo::CountryCode cc) { return h.country < cc; });
  if (it == countries.end() || it->country != country) return nullptr;
  return &*it;
}

core::ConfidenceTier HealthReport::tier_of(geo::CountryCode country) const {
  const core::CountryHealth* h = find(country);
  return h ? h->overall : core::ConfidenceTier::kInsufficient;
}

std::size_t HealthReport::count(core::ConfidenceTier tier) const {
  return static_cast<std::size_t>(
      std::count_if(countries.begin(), countries.end(),
                    [&](const core::CountryHealth& h) { return h.overall == tier; }));
}

HealthReport compute_health(const HealthInputs& inputs,
                            const core::DegradationPolicy& policy) {
  std::unordered_map<geo::CountryCode, Accumulator, geo::CountryCodeHash> acc;

  // VP coverage and accepted address weight, from the sanitized paths.
  // Prefix weight is counted once per distinct prefix (every accepted
  // path to the same prefix repeats the same effective weight).
  for (const sanitize::SanitizedPath& p : inputs.paths) {
    Accumulator& a = acc[p.prefix_country];
    if (p.vp_country == p.prefix_country) {
      a.national_vps.insert(p.vp);
    } else {
      a.international_vps.insert(p.vp);
    }
    if (a.prefixes.insert(p.prefix).second) {
      a.geolocated_addresses += p.weight;
    }
  }

  // No-consensus rejections attributed to their plurality country.
  if (inputs.prefix_geo) {
    for (const auto& [country, tally] :
         inputs.prefix_geo->no_consensus_by_plurality()) {
      Accumulator& a = acc[country];
      a.no_consensus_prefixes += tally.prefixes;
      a.no_consensus_addresses += tally.addresses;
    }
  }
  if (inputs.extra_geo_rejections) {
    // lint: ordered(integer += is exactly commutative)
    for (const auto& [country, addresses] : *inputs.extra_geo_rejections) {
      acc[country].no_consensus_addresses += addresses;
    }
  }

  HealthReport report;
  report.policy = policy;
  report.countries.reserve(acc.size());
  // lint: ordered(report.countries is sorted by country just below)
  for (const auto& [country, a] : acc) {
    if (!country.valid()) continue;
    core::CountryHealth h;
    h.country = country;
    h.national_vps = a.national_vps.size();
    h.international_vps = a.international_vps.size();
    h.accepted_prefixes = a.prefixes.size();
    h.geolocated_addresses = a.geolocated_addresses;
    h.no_consensus_prefixes = a.no_consensus_prefixes;
    h.no_consensus_addresses = a.no_consensus_addresses;
    h.national_tier = policy.view_tier(h.national_vps);
    h.international_tier = policy.view_tier(h.international_vps);
    h.geo_tier = policy.geo_tier(h.geolocated_addresses, h.no_consensus_addresses);
    h.overall = policy.country_tier(h.national_vps, h.international_vps,
                                    h.geolocated_addresses,
                                    h.no_consensus_addresses);
    report.countries.push_back(h);
  }
  std::sort(report.countries.begin(), report.countries.end(),
            [](const core::CountryHealth& x, const core::CountryHealth& y) {
              return x.country < y.country;
            });

  if (inputs.ingest && inputs.ingest->lines > 0) {
    report.ingest_drop_rate = static_cast<double>(inputs.ingest->malformed) /
                              static_cast<double>(inputs.ingest->lines);
  }
  if (inputs.sanitize && inputs.sanitize->total > 0) {
    report.sanitize_drop_rate =
        static_cast<double>(inputs.sanitize->rejected()) /
        static_cast<double>(inputs.sanitize->total);
  }
  return report;
}

HealthReport compute_health(const core::ShardedPathStore& store,
                            const HealthInputs& aux,
                            const core::DegradationPolicy& policy) {
  // Attributed rejections, pre-indexed so the parallel workers only do
  // read-side lookups.
  struct Rejection {
    std::size_t prefixes = 0;
    std::uint64_t addresses = 0;
  };
  std::unordered_map<geo::CountryCode, Rejection, geo::CountryCodeHash> rejected;
  if (aux.prefix_geo) {
    for (const auto& [country, tally] : aux.prefix_geo->no_consensus_by_plurality()) {
      Rejection& r = rejected[country];
      r.prefixes += tally.prefixes;
      r.addresses += tally.addresses;
    }
  }
  if (aux.extra_geo_rejections) {
    // lint: ordered(integer += is exactly commutative)
    for (const auto& [country, addresses] : *aux.extra_geo_rejections) {
      rejected[country].addresses += addresses;
    }
  }

  const std::vector<geo::CountryCode>& census = store.countries();
  const auto health_of = [&](geo::CountryCode cc) {
    const auto it = rejected.find(cc);
    const Rejection r = it == rejected.end() ? Rejection{} : it->second;
    return core::shard_health(cc, store.shard(cc), r.prefixes, r.addresses,
                              policy);
  };
  HealthReport report;
  report.policy = policy;
  report.countries.resize(census.size());
  // One worker per country shard, biggest shard first; each writes its
  // own slot, so the report is independent of the thread count.
  util::parallel_for_costed(store.census_costs(), [&](std::size_t i) {
    report.countries[i] = health_of(census[i]);
  });

  // Countries with an attributed rejection but no geolocated prefix
  // still appear in the report (the span overload creates their
  // accumulator the same way).
  // lint: ordered(report.countries is sorted by country just below)
  for (const auto& [country, r] : rejected) {
    if (!country.valid()) continue;
    if (std::binary_search(census.begin(), census.end(), country)) continue;
    report.countries.push_back(health_of(country));
  }
  std::sort(report.countries.begin(), report.countries.end(),
            [](const core::CountryHealth& x, const core::CountryHealth& y) {
              return x.country < y.country;
            });

  if (aux.ingest && aux.ingest->lines > 0) {
    report.ingest_drop_rate = static_cast<double>(aux.ingest->malformed) /
                              static_cast<double>(aux.ingest->lines);
  }
  if (aux.sanitize && aux.sanitize->total > 0) {
    report.sanitize_drop_rate =
        static_cast<double>(aux.sanitize->rejected()) /
        static_cast<double>(aux.sanitize->total);
  }
  return report;
}

HealthReport compute_health(const core::Pipeline& pipeline,
                            const core::DegradationPolicy& policy) {
  const sanitize::SanitizeResult& sanitized = pipeline.sanitized();
  const core::DegradationPolicy& configured = pipeline.config().degradation;
  if (policy.min_vps != configured.min_vps ||
      policy.min_geo_consensus != configured.min_geo_consensus) {
    // A caller-supplied policy can't reuse the pipeline's memo (entries
    // were tiered under the configured thresholds); score from scratch.
    HealthInputs inputs;
    inputs.prefix_geo = &sanitized.prefix_geo;
    inputs.sanitize = &sanitized.stats;
    inputs.ingest = &pipeline.parse_stats();
    return compute_health(pipeline.store(), inputs, policy);
  }

  // Policy matches the pipeline's: assemble the report from the
  // per-country health memo, so a reload that left most shards intact
  // re-scans only the changed countries' rows. Identical output to the
  // shard-parallel overload (both run core::shard_health).
  const std::vector<geo::CountryCode>& census = pipeline.store().countries();
  HealthReport report;
  report.policy = policy;
  report.countries = pipeline.all_country_health();

  // Countries with an attributed rejection but no geolocated prefix.
  // lint: ordered(report.countries is sorted by country just below)
  for (const auto& [country, tally] :
       sanitized.prefix_geo.no_consensus_by_plurality()) {
    if (!country.valid()) continue;
    if (std::binary_search(census.begin(), census.end(), country)) continue;
    report.countries.push_back(pipeline.country_health(country));
  }
  std::sort(report.countries.begin(), report.countries.end(),
            [](const core::CountryHealth& x, const core::CountryHealth& y) {
              return x.country < y.country;
            });

  const bgp::MrtParseStats& ingest = pipeline.parse_stats();
  if (ingest.lines > 0) {
    report.ingest_drop_rate = static_cast<double>(ingest.malformed) /
                              static_cast<double>(ingest.lines);
  }
  if (sanitized.stats.total > 0) {
    report.sanitize_drop_rate =
        static_cast<double>(sanitized.stats.rejected()) /
        static_cast<double>(sanitized.stats.total);
  }
  return report;
}

}  // namespace georank::robust
