#include "scenario/engine.hpp"

namespace georank::scenario {

WhatIfEngine::WhatIfEngine(core::Pipeline& pipeline,
                           const topo::AsGraph& graph,
                           const rank::AsRegistry& registry,
                           const bgp::RibCollection& baseline_ribs)
    : pipeline_(pipeline),
      graph_(graph),
      registry_(registry),
      baseline_(baseline_ribs),
      baseline_census_(pipeline.all_countries()),
      baseline_checkpoint_(pipeline.checkpoint()) {}

Report WhatIfEngine::run(const Scenario& scenario, std::size_t top_k) {
  std::lock_guard lock{run_mutex_};

  ApplyResult edited = apply(scenario, graph_, registry_, baseline_);

  // Swap the counterfactual world in. Untouched countries keep their
  // shard digests and therefore their memoized rankings; the census
  // below only recomputes what the scenario actually changed.
  const core::Pipeline::ApplyResult swap_in =
      pipeline_.apply_updates(edited.ribs);
  // Country-ranking memo counts specifically: the aggregate counters
  // also reflect whatever outbound/health queries happened to be warm
  // (e.g. a Snapshot::build), which would make the report depend on
  // serving history rather than on the scenario.
  MemoStats memo{swap_in.shards_kept, swap_in.shards_rebuilt,
                 swap_in.country_memos_kept, swap_in.country_memos_evicted};

  std::vector<core::CountryMetrics> counterfactual = pipeline_.all_countries();

  // Re-arm the baseline so the next query diffs against it, not against
  // this scenario's world (and so the serving pipeline is back on the
  // published snapshot's data between queries). restore() swaps the
  // already-sanitized baseline world AND its memoized census back by
  // copy — no sanitizer, no store rebuild, no ranking recompute — so
  // every query starts from the same fully-warmed cache (the one
  // captured at construction, right after the baseline census) and its
  // MemoStats are deterministic. It drops the sanitizer's memo, which
  // the next query's full run re-captures.
  (void)pipeline_.restore(baseline_checkpoint_);

  return build_report(scenario, edited.stats, memo, baseline_census_,
                      counterfactual, top_k);
}

}  // namespace georank::scenario
