// serve: a read-only query node. Set-up builds two 3x snapshots (the
// second from a seeded 2 % thinning of the RIBs, so /v1/delta has a
// diff) and boots from their GRSNAP01 bytes: decode_snapshot + publish,
// then a two-worker HttpServer. Two closed-loop keep-alive connections
// send a seeded Zipf(0.9) mix over ~3k keys, ~10x the 256-entry LRU.
// HttpServer and RankingService (routing, render, LRU, JSON) do all the
// work; the pipeline does none, so a sanitize or kernel change must not
// move this workload.
#include <memory>

#include "io/snapshot_codec.hpp"
#include "reads.hpp"
#include "serve/http_server.hpp"
#include "serve/ranking_service.hpp"
#include "workloads.hpp"
#include "worlds.hpp"

namespace perfbench {

using namespace georank;

namespace {

struct ServeNode {
  std::string before, after;  // GRSNAP01 bytes, published in this order
  std::size_t accepted = 0;
  std::size_t ases = 0;
  std::size_t rib_entries = 0;
  serve::RankingService service;
  std::unique_ptr<serve::HttpServer> server;
  std::vector<double> decode_ms, publish_us;

  ~ServeNode() {
    if (server) server->stop();
  }
};

/// Publishes both snapshots from their bytes into `service`, timing each
/// decode and publish when the vectors are given.
void boot_from_bytes(const ServeNode& node, serve::RankingService& service,
                     std::vector<double>* decode_ms, std::vector<double>* publish_us) {
  for (const std::string* bytes : {&node.before, &node.after}) {
    Clock::time_point t0 = Clock::now();
    auto snapshot = std::make_shared<const serve::Snapshot>(io::decode_snapshot(*bytes));
    if (decode_ms) decode_ms->push_back(ms_since(t0));
    t0 = Clock::now();
    service.publish(std::move(snapshot));
    if (publish_us) publish_us->push_back(ms_since(t0) * 1e3);
  }
}

std::unique_ptr<ServeNode> boot(double scale, std::uint64_t seed) {
  auto node = std::make_unique<ServeNode>();
  {
    std::unique_ptr<InternetWorld> w = make_world(scale, seed);
    node->ases = w->ases;
    node->rib_entries = w->ribs.total_entries();
    std::unique_ptr<core::Pipeline> pipeline = w->make_pipeline();
    pipeline->load(w->ribs);
    node->accepted = pipeline->store().size();
    node->before = io::encode_snapshot(serve::Snapshot::build(*pipeline, fixed_meta(1)));
    Rng rng{seed ^ 0x7468696eull};
    for (bgp::RibSnapshot& day : w->ribs.days) {
      std::erase_if(day.entries, [&](const bgp::RouteEntry&) { return rng.below(50) == 0; });
    }
    pipeline->load(w->ribs);
    node->after = io::encode_snapshot(serve::Snapshot::build(*pipeline, fixed_meta(2)));
  }
  boot_from_bytes(*node, node->service, &node->decode_ms, &node->publish_us);
  serve::HttpServerOptions options;
  options.threads = 2;
  node->server = std::make_unique<serve::HttpServer>(node->service, options);
  node->server->start();
  return node;
}

}  // namespace

void run_serve(const Args& args, Tracer& tracer, Result& result) {
  const double scale = args.smoke ? 0.25 : 3.0;
  constexpr std::size_t kConnections = 2;
  constexpr double kZipf = 0.9;

  std::vector<double> setup_s, decode_ms, publish_us;
  auto setup = [&] {
    std::unique_ptr<ServeNode> node = boot(scale, args.seed);
    decode_ms.insert(decode_ms.end(), node->decode_ms.begin(), node->decode_ms.end());
    publish_us.insert(publish_us.end(), node->publish_us.begin(), node->publish_us.end());
    return node;
  };
  std::unique_ptr<ServeNode> node = timed_setups(kSetupRepsBefore, setup_s, setup);

  // The reference renders come from a second service with the same
  // history, so the measured one's LRU and counters stay untouched.
  serve::RankingService reference;
  boot_from_bytes(*node, reference, nullptr, nullptr);
  std::vector<std::string> keys;
  std::vector<std::string> expected;
  for (std::string& key : read_keys(*reference.current(), args.seed)) {
    serve::Response response = reference.handle(key);
    if (response.status != 200) continue;  // e.g. a country absent before the change
    keys.push_back(std::move(key));
    expected.push_back(std::move(response.body));
  }
  result.info("scale", scale);
  result.info("ases", static_cast<double>(node->ases));
  result.info("rib_entries", static_cast<double>(node->rib_entries));
  result.info("accepted_paths", static_cast<double>(node->accepted));
  result.info("countries", static_cast<double>(reference.current()->countries.size()));
  result.info("snapshot_bytes", static_cast<double>(node->after.size()));
  result.info("read_keys", static_cast<double>(keys.size()));
  result.info("lru_capacity", static_cast<double>(node->service.options().cache_capacity));
  result.info("connections", static_cast<double>(kConnections));

  const Window window{args};
  const ReadStats reads = run_reads(node->server->port(), keys, &expected, kZipf, args.seed,
                                    kConnections, 2000, window, &tracer);
  result.attempted = reads.attempted;
  result.failed = reads.failed;
  result.gate(reads.failed == 0 && reads.mismatched == 0,
              "every read is a 2xx whose body equals RankingService::handle's render");

  Latencies ops;
  for (const ReadSample& s : reads.samples) ops.add(s.traced, s.us / 1e3);
  report_common(args, ops, tracer, result);
  finish_setups(args, node, setup_s, setup, result);
  if (!args.trace) return;

  const double read_p50_us = report_reads(reads, window, result);
  const serve::ServiceCounters counters = node->service.counters();
  const double lookups = static_cast<double>(counters.cache_hits + counters.cache_misses);
  result.metric("serve.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(counters.cache_hits) / lookups : 0.0, "ratio");
  result.metric("serve.status_4xx", static_cast<double>(counters.status_4xx), "count");
  result.metric("serve.status_5xx", static_cast<double>(counters.status_5xx), "count");
  result.metric("io.decode_ms", median(decode_ms), "ms");
  result.metric("serve.publish_us", median(publish_us), "us");
  result.metric("io.snapshot_bytes", static_cast<double>(node->after.size()), "bytes");

  // The service alone, without transport: a fresh node with the same
  // history answers the same seeded key sequence in-process.
  serve::RankingService direct;
  boot_from_bytes(*node, direct, nullptr, nullptr);
  const Zipf zipf{keys.size(), kZipf};
  Rng rng{args.seed * 0x9e3779b97f4a7c15ull + 1};
  std::vector<double> handle_us;
  const std::size_t calls = std::min<std::size_t>(reads.samples.size() / kConnections, 200000);
  for (std::size_t i = 0; i < calls; ++i) {
    const std::string& key = keys[zipf.draw(rng)];
    const Clock::time_point t0 = Clock::now();
    const serve::Response response = direct.handle(key);
    handle_us.push_back(ms_since(t0) * 1e3);
  }
  const double handle = median(handle_us);
  result.metric("serve.handle_us", handle, "us");
  result.metric("serve.transport_us", read_p50_us - handle, "us");
}

}  // namespace perfbench
