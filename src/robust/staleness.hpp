// Serving-staleness states for the live pipeline.
//
// The paper's rankings are snapshots of a continuously moving system
// (IHR's AS Hegemony is explicitly a *continuous* monitor, §1.2.1), and
// real VP feeds gap and flap routinely — so a query service fed by a
// live stream must tell consumers when its view has stopped advancing
// rather than serve ever-staler rankings as if they were fresh. This is
// the same never-fabricate principle core::ConfidenceTier applies to
// geo consensus, lifted from data quality to *process* health.
//
// Like confidence.hpp this header is deliberately DEPENDENCY-FREE
// (header-only, no library): live::HealthMonitor drives the state
// machine and serve::RankingService renders it, so the vocabulary has
// to sit below both. Time enters only as caller-supplied seconds —
// never a wall-clock read (georank-lint GR002) — which is what keeps
// the staleness tests and the recovery harness deterministic.
#pragma once

#include <cstdint>
#include <string_view>

namespace georank::robust {

/// Freshness of the live pipeline's view, worst-first ordered below
/// kRecovering so staler(a, b) over the serving states is max(a, b).
/// kRecovering sits apart: it is an *operational* state (replaying a
/// journal after a crash, or backing off to reopen a vanished source),
/// entered and left explicitly rather than by age.
enum class ServingState : std::uint8_t {
  kFresh = 0,      // the stream watermark advanced recently
  kStale = 1,      // no progress past stale_after; data usable, aging
  kDegraded = 2,   // no progress past degraded_after; treat as historical
  kRecovering = 3, // replaying the journal / backing off to reopen input
};
inline constexpr std::size_t kServingStateCount = 4;

[[nodiscard]] constexpr std::string_view to_string(ServingState state) noexcept {
  switch (state) {
    case ServingState::kFresh: return "fresh";
    case ServingState::kStale: return "stale";
    case ServingState::kDegraded: return "degraded";
    case ServingState::kRecovering: return "recovering";
  }
  return "?";
}

[[nodiscard]] constexpr ServingState staler(ServingState a,
                                            ServingState b) noexcept {
  return a < b ? b : a;
}

/// The age thresholds that map watermark silence onto states. The
/// defaults suit a feed that republishes every few minutes: five
/// minutes of silence is worth flagging, fifteen means consumers
/// should treat the rankings as historical.
struct StalenessPolicy {
  /// Seconds without stream progress before kFresh decays to kStale.
  double stale_after_seconds = 300.0;
  /// Seconds without progress before kStale decays to kDegraded.
  /// Must be >= stale_after_seconds for the machine to be monotone.
  double degraded_after_seconds = 900.0;

  /// State implied purely by the age of the last progress event.
  /// kRecovering is never returned here — it is entered explicitly by
  /// the recovery/backoff path, not by aging.
  [[nodiscard]] constexpr ServingState classify(double age_seconds) const noexcept {
    if (age_seconds >= degraded_after_seconds) return ServingState::kDegraded;
    if (age_seconds >= stale_after_seconds) return ServingState::kStale;
    return ServingState::kFresh;
  }
};

}  // namespace georank::robust
