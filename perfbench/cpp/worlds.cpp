#include "worlds.hpp"

#include "gen/internet.hpp"
#include "io/snapshot_codec.hpp"

namespace perfbench {

using namespace georank;

std::unique_ptr<core::Pipeline> InternetWorld::make_pipeline() const {
  return std::make_unique<core::Pipeline>(world.geo_db, world.vps, world.asn_registry,
                                          world.graph, config);
}

std::unique_ptr<InternetWorld> make_world(double scale, std::uint64_t seed) {
  const gen::InternetSpec spec = gen::internet_spec(scale, seed);
  const gen::InternetScaleGenerator generator{spec};
  auto w = std::make_unique<InternetWorld>();
  w->world = generator.generate();
  w->ribs = generator.synthesize_ribs(w->world);
  w->config.sanitizer.clique = w->world.clique;
  w->config.sanitizer.route_server_asns = w->world.route_servers;
  w->ases = spec.as_count();
  return w;
}

serve::SnapshotMeta fixed_meta(std::uint64_t id) {
  return serve::SnapshotMeta{id, id, "perfbench"};
}

std::string snapshot_bytes(const core::Pipeline& pipeline) {
  return io::encode_snapshot(serve::Snapshot::build(pipeline, fixed_meta(1)));
}

}  // namespace perfbench
