// scenario::WhatIfEngine — counterfactual queries over a core::Pipeline.
//
// The engine owns the what-if dataflow (DESIGN.md §4i): it holds the
// baseline world (graph + registry + RIBs) by reference, captures the
// baseline census once, and per query runs
//
//   scenario::apply -> Pipeline::apply_updates -> all_countries()
//                   -> build_report (vs the captured baseline census)
//
// Pipeline::apply_updates is the memo-reuse lever: because apply()
// keeps every entry untouched by the scenario byte-identical, the
// shard content digests of unaffected countries match the baseline and
// their memoized rankings survive — the report's MemoStats records
// exactly how many. After the census the engine re-arms the baseline
// through a Pipeline::Checkpoint captured at construction: restore()
// copies the already-sanitized baseline world back without re-running
// the sanitizer, so the NEXT query's counterfactual shards diff against
// the baseline (not a previous scenario). Each query's apply_updates
// re-sanitizes its edited collection in full.
//
// Queries are serialized on an internal mutex: the pipeline is a
// mutable world the engine swaps back and forth, so concurrent what-ifs
// would interleave loads. The serve layer's LRU in front of this (keyed
// by scenario hash + snapshot id) absorbs repeat queries.
#pragma once

#include <mutex>
#include <vector>

#include "core/pipeline.hpp"
#include "scenario/apply.hpp"
#include "scenario/report.hpp"
#include "util/thread_safety.hpp"

namespace georank::scenario {

class WhatIfEngine {
 public:
  /// `pipeline` must already have `baseline_ribs` loaded; all referenced
  /// objects must outlive the engine. Captures the baseline census
  /// (warming every memo the counterfactual run can reuse).
  WhatIfEngine(core::Pipeline& pipeline, const topo::AsGraph& graph,
               const rank::AsRegistry& registry,
               const bgp::RibCollection& baseline_ribs);

  /// Runs one counterfactual query end to end. Deterministic:
  /// bit-identical across GEORANK_THREADS and repeated calls for the
  /// same scenario + seed. Throws ApplyError for scenarios naming ASNs
  /// outside the graph.
  [[nodiscard]] Report run(const Scenario& scenario, std::size_t top_k = 10);

  [[nodiscard]] const std::vector<core::CountryMetrics>& baseline() const {
    return baseline_census_;
  }

 private:
  core::Pipeline& pipeline_;
  const topo::AsGraph& graph_;
  const rank::AsRegistry& registry_;
  const bgp::RibCollection& baseline_;
  std::vector<core::CountryMetrics> baseline_census_;
  /// The sanitized baseline world, captured once so every re-arm skips
  /// the sanitizer (Pipeline::restore).
  core::Pipeline::Checkpoint baseline_checkpoint_;

  /// Serializes whole queries (the pipeline world swap is stateful).
  std::mutex run_mutex_;
};

}  // namespace georank::scenario
