// The four workloads. Each sets up its inputs from args.seed, measures
// for args.seconds, checks its outputs against an independent
// computation, and fills `result` with the end-to-end metrics or, when
// args.trace, the per-layer ones.
#pragma once

#include <vector>

#include "harness.hpp"

namespace perfbench {

/// World scale of the pipeline workloads (batch, live, whatif): 0.25x,
/// ~190 ASes, ~22k RIB entries, 18 countries. Their state then stays in
/// the host's caches. From 0.5x up it spills to DRAM, and on a shared
/// host the other tenants' memory traffic then moved a run's median by
/// 20-30 % from one run to the next, more than any bound can allow
/// (README.md has the figures).
inline constexpr double kPipelineScale = 0.25;

/// Set-up repetitions behind setup_s, their median: half run before the
/// measured window and, in untraced runs, half after it, so the median
/// sees the host over the whole run rather than only at its start.
inline constexpr int kSetupReps = 8;
inline constexpr int kSetupRepsBefore = kSetupReps / 2;

/// Runs `setup` `reps` times, each from scratch (the previous run's
/// state is destroyed first), and appends each run's seconds to
/// `setup_s`. Returns the last run's state.
template <typename Setup>
auto timed_setups(int reps, std::vector<double>& setup_s, Setup&& setup) {
  decltype(setup()) state{};
  for (int rep = 0; rep < reps; ++rep) {
    state = {};
    const Clock::time_point t0 = Clock::now();
    state = setup();
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  return state;
}

/// In untraced runs, frees `state`, runs the other half of the set-ups
/// and reports setup_s; traced runs keep `state` and report no setup_s.
/// Called after report_common, so peak_rss_mb is the run's own.
template <typename State, typename Setup>
void finish_setups(const Args& args, State& state, std::vector<double>& setup_s, Setup&& setup,
                   Result& result) {
  if (args.trace) return;
  state = {};
  (void)timed_setups(kSetupReps - kSetupRepsBefore, setup_s, setup);
  result.metric("setup_s", median(setup_s), "s");
}

void run_batch(const Args& args, Tracer& tracer, Result& result);
void run_live(const Args& args, Tracer& tracer, Result& result);
void run_serve(const Args& args, Tracer& tracer, Result& result);
void run_whatif(const Args& args, Tracer& tracer, Result& result);

}  // namespace perfbench
