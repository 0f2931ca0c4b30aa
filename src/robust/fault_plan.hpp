// Pipeline-level fault injection: perturb a loaded world DETERMINISTICALLY
// and measure how far each country's rankings drift from the clean
// baseline.
//
// Three fault dimensions, mirroring how measurement infrastructure
// actually degrades (Alfroy et al. on droppable VP sets; the paper's own
// §5 stability analysis):
//
//   kDropVps     a collector or peering session disappears: k vantage
//                points vanish, uniformly or targeted at one country;
//   kCorruptGeo  a geolocation DB release blanks/mangles blocks: a
//                fraction of accepted prefixes lose their country, so
//                their paths fall out as "prefix no location";
//   kDropPaths   tolerant ingest silently loses a fraction of sanitized
//                paths (truncated dumps, over-aggressive filters).
//
// RobustnessHarness re-runs the metric computation on the perturbed path
// set and scores every ranking's NDCG@k against the clean baseline (the
// same comparison core::StabilityAnalyzer uses for VP downsampling),
// producing a robustness curve per country and metric (CCI/CCN/AHI/AHN).
// Everything is a pure function of (inputs, seed): same seeds => same
// curves, bit-identical across thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/country.hpp"
#include "core/confidence.hpp"
#include "sanitize/path_sanitizer.hpp"

namespace georank::core {
class Pipeline;
}

namespace georank::robust {

enum class FaultDimension : std::uint8_t { kDropVps, kCorruptGeo, kDropPaths };

[[nodiscard]] std::string_view to_string(FaultDimension dimension) noexcept;

/// One deterministic perturbation of a sanitized path set. All three
/// dimensions may be combined; each draws from an independent RNG stream
/// of `seed`, so enabling one never changes another's choices.
struct PerturbationSpec {
  std::uint64_t seed = 42;
  /// Drop this many distinct VPs (clamped to the candidate set).
  std::size_t drop_vps = 0;
  /// When valid, dropped VPs are chosen among VPs HOSTED IN this country
  /// (a targeted national-coverage failure); otherwise uniformly.
  geo::CountryCode vp_target;
  /// Blank the geolocation of this fraction of accepted prefixes; their
  /// paths drop, exactly as a "prefix no location" sanitizer rejection.
  double corrupt_geo_fraction = 0.0;
  /// When valid, only this country's prefixes are corruption candidates.
  geo::CountryCode geo_target;
  /// Drop this fraction of sanitized paths uniformly.
  double drop_path_fraction = 0.0;
};

struct PerturbationResult {
  /// Surviving paths, in the clean set's order (deterministic).
  std::vector<sanitize::SanitizedPath> paths;
  std::vector<bgp::VpId> dropped_vps;           // sorted ascending
  std::vector<bgp::Prefix> corrupted_prefixes;  // sorted ascending
  /// Effective address weight whose geolocation was blanked, by prefix
  /// country — feed to HealthInputs::extra_geo_rejections so the health
  /// report sees the corruption as lost consensus.
  std::unordered_map<geo::CountryCode, std::uint64_t, geo::CountryCodeHash>
      corrupted_addresses;
  /// Paths removed by drop_path_fraction alone (not already gone).
  std::size_t dropped_paths = 0;
};

/// Applies `spec` to `clean`. Pure: depends only on (clean, spec).
[[nodiscard]] PerturbationResult perturb(
    std::span<const sanitize::SanitizedPath> clean, const PerturbationSpec& spec);

/// A severity sweep: each dimension's steps are perturbed independently
/// (one dimension at a time), `trials` different seeds per step.
struct FaultPlan {
  std::uint64_t seed = 42;
  /// kDropVps severities (absolute VP counts), e.g. {1, 2, 4}.
  std::vector<std::size_t> vp_drop_steps;
  /// Forwarded to PerturbationSpec::vp_target for every kDropVps step.
  geo::CountryCode vp_target;
  /// kCorruptGeo severities (fractions of accepted prefixes).
  std::vector<double> geo_corrupt_steps;
  /// kDropPaths severities (fractions of sanitized paths).
  std::vector<double> path_drop_steps;
  std::size_t trials = 3;
  /// NDCG cut-off (the paper evaluates top-10).
  std::size_t top_k = 10;

  /// {1,2,4} VPs, {5%, 10%} geo blocks, {5%, 10%} paths, 3 trials.
  [[nodiscard]] static FaultPlan defaults();
};

/// Mean/min NDCG@k of the perturbed rankings against the clean baseline
/// at one (dimension, severity).
struct RobustnessPoint {
  FaultDimension dimension = FaultDimension::kDropVps;
  double severity = 0.0;  // VP count for kDropVps, fraction otherwise
  std::size_t trials = 0;
  double cci = 1.0, ccn = 1.0, ahi = 1.0, ahn = 1.0;  // mean NDCG
  /// Worst single-trial, single-metric NDCG at this point.
  double worst = 1.0;
};

struct RobustnessCurve {
  geo::CountryCode country;
  /// Grouped by dimension in declaration order, severities ascending in
  /// plan order.
  std::vector<RobustnessPoint> points;

  /// Min of RobustnessPoint::worst across the curve (1.0 when empty).
  [[nodiscard]] double worst() const noexcept;
};

struct RobustnessReport {
  std::vector<RobustnessCurve> curves;  // sorted by country code
  FaultPlan plan;
};

/// Drives the sweep over a LOADED pipeline. Perturbed stores are shared
/// across countries within one (dimension, severity, trial) job, and jobs
/// fan out over util::parallel_for with disjoint output slots, so the
/// report is identical for any GEORANK_THREADS value.
class RobustnessHarness {
 public:
  /// The pipeline must outlive the harness and stay loaded across run().
  explicit RobustnessHarness(const core::Pipeline& pipeline)
      : pipeline_(&pipeline) {}

  /// Empty `countries` -> every country in the pipeline's census.
  /// Throws std::logic_error when the pipeline has no RIBs loaded.
  [[nodiscard]] RobustnessReport run(
      const FaultPlan& plan,
      std::span<const geo::CountryCode> countries = {}) const;

 private:
  const core::Pipeline* pipeline_;
};

}  // namespace georank::robust
