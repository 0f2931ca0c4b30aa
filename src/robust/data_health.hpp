// DataHealth: per-country evidence accounting behind every ranking.
//
// After a load, each country's observational basis is summarized — how
// many national/international VPs saw it, how much address space
// geolocated cleanly, how much failed consensus (geo::PrefixGeolocator
// rejections attributed to their plurality country), and what the
// ingest + sanitize layers dropped globally — and folded into a
// core::ConfidenceTier by a core::DegradationPolicy. The pipeline annotates metrics
// with the same tiers; this module produces the full audit record the
// `georank health` command renders.
//
// compute_health() also accepts a bare SanitizedPath span (plus optional
// evidence), so the fault-injection harness can score a PERTURBED world
// with exactly the same rules as a clean one.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/line_parse.hpp"
#include "core/country_health.hpp"
#include "geo/country.hpp"
#include "geo/prefix_geolocator.hpp"
#include "core/confidence.hpp"
#include "sanitize/path_sanitizer.hpp"

namespace georank::core {
class Pipeline;
class ShardedPathStore;
}

namespace georank::robust {

// core::CountryHealth itself lives in core/country_health.hpp (the pipeline
// memoizes one per shard); `core::CountryHealth` still names it.

/// Everything compute_health() can draw on. Only `paths` is mandatory;
/// absent evidence is simply not counted (geo consensus then reads 1.0).
struct HealthInputs {
  std::span<const sanitize::SanitizedPath> paths;
  /// Geolocation accept/reject record (per-country no-consensus rates).
  const geo::PrefixGeoResult* prefix_geo = nullptr;
  /// Sanitizer drop attribution (Table-1 categories).
  const sanitize::SanitizeStats* sanitize = nullptr;
  /// Ingest-layer drop attribution (malformed-line counters).
  const bgp::MrtParseStats* ingest = nullptr;
  /// Extra per-country address weight whose geolocation was lost AFTER
  /// sanitization — the fault injector reports corrupted geo blocks
  /// here so a perturbed world's consensus rates reflect the damage.
  const std::unordered_map<geo::CountryCode, std::uint64_t,
                           geo::CountryCodeHash>* extra_geo_rejections = nullptr;
};

struct HealthReport {
  /// Sorted by country code ascending; every country with at least one
  /// geolocated prefix OR at least one attributed no-consensus
  /// rejection appears.
  std::vector<core::CountryHealth> countries;
  core::DegradationPolicy policy;

  // Global drop attribution, in [0,1] of the respective layer's input.
  double ingest_drop_rate = 0.0;    // malformed lines / lines
  double sanitize_drop_rate = 0.0;  // rejected entries / total entries

  [[nodiscard]] const core::CountryHealth* find(geo::CountryCode country) const;
  /// Tier of a country; a country ABSENT from the report has, by
  /// definition, no usable evidence -> kInsufficient.
  [[nodiscard]] core::ConfidenceTier tier_of(geo::CountryCode country) const;
  [[nodiscard]] std::size_t count(core::ConfidenceTier tier) const;
};

/// Builds the health report from raw evidence. Deterministic: the output
/// depends only on the inputs and the policy.
[[nodiscard]] HealthReport compute_health(const HealthInputs& inputs,
                                          const core::DegradationPolicy& policy = {});

/// Shard-parallel equivalent over a prebuilt ShardedPathStore: one
/// worker per country shard (largest first), so health accounting for
/// an internet-scale world doesn't run as one serial global pass.
/// `aux.paths` is ignored — path evidence comes from the shards — but
/// the other HealthInputs fields are honored. Output is identical to
/// the span overload run over the store's source paths.
[[nodiscard]] HealthReport compute_health(const core::ShardedPathStore& store,
                                          const HealthInputs& aux,
                                          const core::DegradationPolicy& policy = {});

/// Convenience overload over a loaded pipeline (throws std::logic_error
/// like any other pipeline query when nothing is loaded). Uses the
/// pipeline's sanitize result, geolocation record and ingest stats.
/// When `policy` equals the pipeline's configured degradation policy the
/// report is assembled from Pipeline::country_health's memo (so only
/// countries whose shards changed since the last reload are re-scanned
/// — the live pipeline republish leans on this); otherwise it routes
/// through the shard-parallel path above. Both produce identical output.
[[nodiscard]] HealthReport compute_health(const core::Pipeline& pipeline,
                                          const core::DegradationPolicy& policy = {});

}  // namespace georank::robust
