// batch: the paper's census job, one closed-loop rebuild at a time from
// MRT text — a fresh Pipeline, load_text, Snapshot::build and
// encode_snapshot. Parse, sanitize, store build and the cold census do
// the work; the live, serve and scenario layers are bypassed.
#include <sstream>

#include "bgp/mrt_stream.hpp"
#include "bgp/mrt_text.hpp"
#include "io/snapshot_codec.hpp"
#include "robust/data_health.hpp"
#include "sanitize/incremental_sanitizer.hpp"
#include "workloads.hpp"
#include "worlds.hpp"

namespace perfbench {

using namespace georank;

namespace {

struct Rebuild {
  std::string bytes;
  std::size_t accepted = 0;
  std::size_t countries = 0;
};

/// One rebuild through the public API, spans around each call.
Rebuild rebuild(const InternetWorld& w, const std::string& text, Tracer& tracer,
                std::uint64_t op) {
  auto whole = tracer.span("batch.rebuild", op);
  Rebuild out;
  std::unique_ptr<core::Pipeline> pipeline = w.make_pipeline();
  {
    auto s = tracer.span("core.load_text", op);
    pipeline->load_text(text);
  }
  serve::Snapshot snapshot;
  {
    auto s = tracer.span("serve.snapshot_build_cold", op);
    snapshot = serve::Snapshot::build(*pipeline, fixed_meta(1));
  }
  {
    auto s = tracer.span("io.encode", op);
    out.bytes = io::encode_snapshot(snapshot);
  }
  out.accepted = pipeline->store().size();
  out.countries = snapshot.countries.size();
  auto s = tracer.span("core.teardown", op);
  pipeline.reset();
  return out;
}

/// Replays the public calls a rebuild makes internally, one span each,
/// so the composite load and census split into their layers.
void replay_layers(const InternetWorld& w, const std::string& text, Tracer& tracer,
                   std::uint64_t op, Result& result) {
  bgp::MrtStreamLoader loader{w.config.ingest};
  bgp::RibCollection ribs;
  {
    auto s = tracer.span("bgp.parse", op);
    ribs = loader.load_text(text);
  }
  result.metric("bgp.parse_rejected", static_cast<double>(loader.stats().malformed), "count");

  // The same sanitizer entry point Pipeline::load uses; the span leaves
  // out tearing down the sanitizer's memo, which load keeps.
  sanitize::SanitizeResult sanitized;
  {
    sanitize::IncrementalSanitizer sanitizer{w.world.geo_db, w.world.vps, w.world.asn_registry,
                                             w.config.sanitizer};
    auto s = tracer.span("sanitize.run", op);
    sanitized = sanitizer.run_full(ribs);
  }
  result.metric("sanitize.accepted", static_cast<double>(sanitized.paths.size()), "count");
  {
    std::optional<core::ShardedPathStore> store;
    {
      auto s = tracer.span("core.store_build", op);
      store.emplace(std::span<const sanitize::SanitizedPath>{sanitized.paths});
    }
  }
  sanitized = {};

  std::unique_ptr<core::Pipeline> pipeline = w.make_pipeline();
  {
    auto s = tracer.span("core.load", op);
    pipeline->load(ribs);
  }
  {
    auto s = tracer.span("core.census", op);
    (void)pipeline->all_countries();
  }
  {
    auto s = tracer.span("robust.health", op);
    (void)robust::compute_health(*pipeline, pipeline->config().degradation);
  }
  {
    // Both memos are warm now: what is left is the snapshot's own work.
    auto s = tracer.span("serve.snapshot_build", op);
    (void)serve::Snapshot::build(*pipeline, fixed_meta(1));
  }
  pipeline->clear_caches();
  {
    ScopedLibraryThreads one{"1"};
    auto s = tracer.span("core.census_1t", op);
    (void)pipeline->all_countries();
  }

  // The kernels country by country, serially: their sums split the
  // census by kernel, their maximum is the parallel census' critical path.
  const core::ShardedPathStore& store = pipeline->store();
  const core::CountryRankings& rankings = pipeline->rankings();
  for (geo::CountryCode cc : store.countries()) {
    auto country = tracer.span("rank.country", op);
    const core::CountryView national = store.national_view(cc);
    const core::CountryView international = store.international_view(cc);
    {
      auto s = tracer.span("rank.cone", op);
      (void)rankings.cone_ranking(national);
      (void)rankings.cone_ranking(international);
    }
    {
      auto s = tracer.span("rank.hegemony", op);
      (void)rankings.hegemony_ranking(national);
      (void)rankings.hegemony_ranking(international);
    }
  }
}

}  // namespace

void run_batch(const Args& args, Tracer& tracer, Result& result) {
  const double scale = kPipelineScale;

  // Set-up: world generation, RIB synthesis, rendering the MRT text and
  // the first load (a rebuild whose bytes are the reference every later
  // rebuild must reproduce).
  struct Inputs {
    std::unique_ptr<InternetWorld> w;
    std::string text;
    Rebuild reference;
  };
  auto setup = [&] {
    Inputs in;
    in.w = make_world(scale, args.seed);
    std::ostringstream os;
    bgp::MrtTextWriter{os}.write_collection(in.w->ribs);
    in.text = std::move(os).str();
    in.reference = rebuild(*in.w, in.text, tracer, 0);
    return in;
  };
  std::vector<double> setup_s;
  Inputs in = timed_setups(kSetupRepsBefore, setup_s, setup);
  const InternetWorld* w = in.w.get();
  const std::string& text = in.text;
  const Rebuild& reference = in.reference;
  result.info("scale", scale);
  result.info("ases", static_cast<double>(w->ases));
  result.info("rib_entries", static_cast<double>(w->ribs.total_entries()));
  result.info("mrt_text_bytes", static_cast<double>(text.size()));
  result.info("accepted_paths", static_cast<double>(reference.accepted));
  result.info("countries", static_cast<double>(reference.countries));
  result.info("snapshot_bytes", static_cast<double>(reference.bytes.size()));

  Latencies ops;
  std::size_t mismatches = 0;
  const Window window{args};
  for (std::uint64_t op = 1;; ++op) {
    const bool traced = window.traced_now();
    // At least one rebuild in each half, however long a rebuild takes.
    const bool half_empty = traced ? ops.traced_ms.empty() : ops.plain_ms.empty();
    if (!window.open() && !half_empty) break;
    tracer.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    const Rebuild r = rebuild(*w, text, tracer, op);
    ops.add(traced, ms_since(t0));
    ++result.attempted;
    if (r.bytes != reference.bytes) ++mismatches;
    if (traced) replay_layers(*w, text, tracer, op, result);
  }
  tracer.set_enabled(false);
  result.failed = mismatches;
  result.gate(mismatches == 0, "every rebuild's GRSNAP01 bytes equal the first rebuild's");
  {
    ScopedLibraryThreads one{"1"};
    result.gate(rebuild(*w, text, tracer, 0).bytes == reference.bytes,
                "a GEORANK_THREADS=1 rebuild gives the same bytes");
  }

  report_common(args, ops, tracer, result);
  finish_setups(args, in, setup_s, setup, result);
  if (args.trace) {
    using Agg = Tracer::Agg;
    const double sanitize_ms = tracer.per_op_ms("sanitize.run");
    const double store_ms = tracer.per_op_ms("core.store_build");
    result.metric("bgp.parse_ms", tracer.per_op_ms("bgp.parse"), "ms");
    result.metric("sanitize.run_ms", sanitize_ms, "ms");
    result.metric("core.store_build_ms", store_ms, "ms");
    result.metric("core.load_self_ms", tracer.per_op_ms("core.load") - sanitize_ms - store_ms,
                  "ms");
    result.metric("core.census_ms", tracer.per_op_ms("core.census"), "ms");
    result.metric("core.census_1t_ms", tracer.per_op_ms("core.census_1t"), "ms");
    result.metric("rank.cone_ms", tracer.per_op_ms("rank.cone"), "ms");
    result.metric("rank.hegemony_ms", tracer.per_op_ms("rank.hegemony"), "ms");
    result.metric("rank.slowest_country_ms", tracer.per_op_ms("rank.country", Agg::kMax), "ms");
    result.metric("robust.health_ms", tracer.per_op_ms("robust.health"), "ms");
    result.metric("serve.snapshot_build_ms", tracer.per_op_ms("serve.snapshot_build"), "ms");
    result.metric("io.encode_ms", tracer.per_op_ms("io.encode"), "ms");
    result.metric("io.snapshot_bytes", static_cast<double>(reference.bytes.size()), "bytes");
  }
}

}  // namespace perfbench
