// scenario::Report — counterfactual vs baseline, per-country, per-metric.
//
// Built from two censuses (vectors of core::CountryMetrics, the same
// value Pipeline::all_countries() returns and serve::Snapshot holds):
// each country present in either world gets a core::compare_rankings
// delta per metric (CCI/CCN/AHI/AHN) plus its confidence-tier
// transition; countries where nothing moved are filtered out. Rendering
// to JSON lives in the serve layer (serve::render_whatif_json) so the
// CLI and the /v1/whatif endpoint emit byte-identical bodies; the
// human-readable table and CSV renders live here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/country_rankings.hpp"
#include "core/rank_delta.hpp"
#include "core/timeline.hpp"
#include "scenario/apply.hpp"
#include "scenario/scenario.hpp"

namespace georank::scenario {

struct CountryShift {
  geo::CountryCode country;
  /// A country can vanish (every geolocated prefix withdrawn) or appear
  /// (it cannot today, but the shape allows it).
  bool in_baseline = true;
  bool in_counterfactual = true;
  core::ConfidenceTier confidence_before = core::ConfidenceTier::kHigh;
  core::ConfidenceTier confidence_after = core::ConfidenceTier::kHigh;
  core::RankDelta cci, ccn, ahi, ahn;

  [[nodiscard]] const core::RankDelta& delta(core::TimelineMetric metric) const;
};

/// What the Pipeline's shard-digest memoization did for this query —
/// the observability record proving untouched countries were NOT
/// recomputed.
struct MemoStats {
  std::size_t shards_kept = 0;
  std::size_t shards_rebuilt = 0;
  std::size_t memos_kept = 0;
  std::size_t memos_evicted = 0;

  friend bool operator==(const MemoStats&, const MemoStats&) = default;
};

struct Report {
  Scenario scenario;
  std::uint64_t scenario_hash = 0;
  ApplyStats apply;
  MemoStats memo;
  std::size_t top_k = 10;
  /// Countries in the baseline census.
  std::size_t countries_total = 0;
  /// Only countries where a metric, membership, or confidence changed,
  /// sorted by country code.
  std::vector<CountryShift> shifts;
};

/// Diffs the two censuses (each sorted by country code, as
/// Pipeline::all_countries() returns them).
[[nodiscard]] Report build_report(
    const Scenario& scenario, const ApplyStats& apply_stats,
    const MemoStats& memo, const std::vector<core::CountryMetrics>& baseline,
    const std::vector<core::CountryMetrics>& counterfactual,
    std::size_t top_k);

/// Human-readable rank-shift tables (stdout of `georank whatif`).
[[nodiscard]] std::string render_text(const Report& report);

/// CSV: one row per (country, metric, asn) shift.
[[nodiscard]] std::string render_csv(const Report& report);

}  // namespace georank::scenario
