// The benchmark's inputs: internet-preset worlds rendered from the
// run's seed, plus the helpers every workload shares to load them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "gen/world.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

struct InternetWorld {
  georank::gen::World world;
  georank::bgp::RibCollection ribs;
  georank::core::PipelineConfig config;
  std::size_t ases = 0;

  [[nodiscard]] std::unique_ptr<georank::core::Pipeline> make_pipeline() const;
};

/// The `--preset internet` world at `scale` (1 = ~750 ASes), seeded.
[[nodiscard]] std::unique_ptr<InternetWorld> make_world(double scale, std::uint64_t seed);

/// Snapshot metadata with fixed ids, so byte comparisons see only data.
[[nodiscard]] georank::serve::SnapshotMeta fixed_meta(std::uint64_t id);

/// GRSNAP01 bytes of the pipeline's current census.
[[nodiscard]] std::string snapshot_bytes(const georank::core::Pipeline& pipeline);

}  // namespace perfbench
