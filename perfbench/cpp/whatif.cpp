// whatif: counterfactual queries. Set-up loads the internet world under
// scenario::WhatIfEngine behind the service and a one-worker
// HttpServer. One closed-loop connection POSTs distinct seeded
// scenarios to /v1/whatif — the five DSL event families in turn, so
// every POST misses the LRU. A write is one POST until its 200 body
// arrives. This is the only workload that runs scenario::apply,
// apply_updates with a full re-sanitize, the census with partial memo
// reuse and Pipeline::restore.
#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "scenario/engine.hpp"
#include "scenario/scenario.hpp"
#include "serve/http_client.hpp"
#include "serve/http_server.hpp"
#include "serve/ranking_service.hpp"
#include "workloads.hpp"
#include "worlds.hpp"

namespace perfbench {

using namespace georank;

namespace {

constexpr std::size_t kTopK = 10;
constexpr const char* kTarget = "/v1/whatif?top=10";

struct WhatIfNode {
  std::unique_ptr<InternetWorld> w;
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<scenario::WhatIfEngine> engine;
  serve::RankingService service;
  std::unique_ptr<serve::HttpServer> server;

  ~WhatIfNode() {
    if (server) server->stop();
  }
};

std::unique_ptr<WhatIfNode> boot(double scale, std::uint64_t seed) {
  auto node = std::make_unique<WhatIfNode>();
  node->w = make_world(scale, seed);
  node->pipeline = node->w->make_pipeline();
  node->pipeline->load(node->w->ribs);
  node->engine = std::make_unique<scenario::WhatIfEngine>(
      *node->pipeline, node->w->world.graph, node->w->world.as_registry, node->w->ribs);
  node->service.set_whatif(node->engine.get());
  node->service.publish(std::make_shared<const serve::Snapshot>(
      serve::Snapshot::build(*node->pipeline, fixed_meta(1))));
  serve::HttpServerOptions options;
  options.threads = 1;
  node->server = std::make_unique<serve::HttpServer>(node->service, options);
  node->server->start();
  return node;
}

/// Hands out 0..n-1 in seeded order without repeats until all are
/// used, then reshuffles: a run's scenarios spread over the world
/// instead of clustering on a few heavy or light choices.
class Deck {
 public:
  explicit Deck(std::size_t n) : order_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }
  std::size_t next(Rng& rng) {
    if (at_ == 0) {
      for (std::size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng.below(i + 1)]);
      }
    }
    const std::size_t out = order_[at_];
    at_ = (at_ + 1) % order_.size();
    return out;
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t at_ = 0;
};

/// Draws scenarios over the world: family i % 5 for the i-th, with
/// seeded countries, ASNs, prefixes and fractions, and a distinct
/// scenario seed so no two share an LRU key.
class ScenarioSource {
 public:
  ScenarioSource(const InternetWorld& w, const std::vector<core::CountryMetrics>& census,
                 std::uint64_t seed)
      : w_(w), rng_(seed ^ 0x7768617469660000ull) {
    for (const core::CountryMetrics& m : census) countries_.push_back(m.country);
    // Only country pairs that share a link: de-peering any other pair
    // changes nothing and would be a free POST.
    const topo::AsGraph& graph = w.world.graph;
    std::set<std::pair<geo::CountryCode, geo::CountryCode>> bordering;
    for (bgp::Asn asn : graph.ases()) {
      const auto a = w.world.as_registry.find(asn);
      if (a == w.world.as_registry.end()) continue;
      for (const topo::Neighbor& n : graph.neighbors(graph.id_of(asn))) {
        const auto b = w.world.as_registry.find(graph.asn_of(n.id));
        if (b != w.world.as_registry.end() && a->second < b->second) {
          bordering.emplace(a->second, b->second);
        }
      }
    }
    depeer_pairs_.assign(bordering.begin(), bordering.end());
    std::map<std::uint16_t, std::vector<bgp::Asn>> by_country;
    for (const auto& [asn, cc] : w.world.as_registry) {
      if (w.world.graph.contains(asn)) by_country[cc.raw()].push_back(asn);
    }
    for (geo::CountryCode cc : countries_) {
      std::vector<bgp::Asn>& asns = by_country[cc.raw()];
      std::sort(asns.begin(), asns.end());
      if (!asns.empty()) consolidatable_.emplace_back(cc, std::move(asns));
    }
    graph_ases_.assign(w.world.graph.ases().begin(), w.world.graph.ases().end());
    std::sort(graph_ases_.begin(), graph_ases_.end());
    clique_ = w.world.clique;
    std::sort(clique_.begin(), clique_.end());
    depeer_deck_.emplace(depeer_pairs_.size());
    cablecut_deck_.emplace(countries_.size());
    clique_deck_.emplace(clique_.size());
    consolidate_deck_.emplace(consolidatable_.size());
  }

  scenario::Scenario next() {
    scenario::Event e;
    switch (count_ % 5) {
      case 0: {
        e.kind = scenario::EventKind::kDepeerCountries;
        std::tie(e.country_a, e.country_b) = depeer_pairs_[depeer_deck_->next(rng_)];
        break;
      }
      case 1:
        e.kind = scenario::EventKind::kDepeerClique;
        e.asn = clique_[clique_deck_->next(rng_)];
        break;
      case 2: {
        e.kind = scenario::EventKind::kHijack;
        const gen::Origination& victim = pick(w_.world.originations);
        e.prefix = victim.prefix;
        do e.asn = pick(graph_ases_);
        while (e.asn == victim.origin);
        break;
      }
      case 3:
        e.kind = scenario::EventKind::kCableCut;
        e.country_a = countries_[cablecut_deck_->next(rng_)];
        e.fraction = 0.2 + 0.1 * static_cast<double>(rng_.below(4));
        break;
      default: {
        e.kind = scenario::EventKind::kConsolidate;
        const auto& [cc, asns] = consolidatable_[consolidate_deck_->next(rng_)];
        e.country_a = cc;
        e.asn = pick(asns);
        break;
      }
    }
    scenario::Scenario s;
    s.name = "perfbench-" + std::to_string(count_);
    s.seed = rng_.next() | 1;
    s.events = {e};
    ++count_;
    return s;
  }

 private:
  template <typename T>
  const T& pick(const std::vector<T>& from) {
    return from[rng_.below(from.size())];
  }

  const InternetWorld& w_;
  Rng rng_;
  std::size_t count_ = 0;
  std::vector<geo::CountryCode> countries_;
  std::vector<std::pair<geo::CountryCode, geo::CountryCode>> depeer_pairs_;
  std::vector<std::pair<geo::CountryCode, std::vector<bgp::Asn>>> consolidatable_;
  std::vector<bgp::Asn> graph_ases_;
  std::vector<bgp::Asn> clique_;
  std::optional<Deck> depeer_deck_, cablecut_deck_, clique_deck_, consolidate_deck_;
};

/// The engine's public call sequence, replayed by hand with one span per
/// call (WhatIfEngine::run itself is opaque).
void replay_layers(WhatIfNode& node, const core::Pipeline::Checkpoint& baseline,
                   const std::string& text, Tracer& tracer, std::uint64_t op,
                   std::vector<core::Pipeline::ApplyResult>& applies) {
  scenario::Scenario s;
  {
    auto span = tracer.span("scenario.parse", op);
    s = scenario::parse(text);
  }
  scenario::ApplyResult edited;
  {
    auto span = tracer.span("scenario.apply", op);
    edited = scenario::apply(s, node.w->world.graph, node.w->world.as_registry, node.w->ribs);
  }
  {
    auto span = tracer.span("core.apply", op);
    applies.push_back(node.pipeline->apply_updates(edited.ribs));
  }
  std::vector<core::CountryMetrics> counterfactual;
  {
    auto span = tracer.span("core.census", op);
    counterfactual = node.pipeline->all_countries();
  }
  {
    auto span = tracer.span("core.restore", op);
    (void)node.pipeline->restore(baseline);
  }
  {
    auto span = tracer.span("scenario.report", op);
    const core::Pipeline::ApplyResult& a = applies.back();
    const scenario::MemoStats memo{a.shards_kept, a.shards_rebuilt, a.country_memos_kept,
                                   a.country_memos_evicted};
    (void)serve::render_whatif_json(
        scenario::build_report(s, edited.stats, memo, node.engine->baseline(), counterfactual,
                               kTopK),
        1);
  }
}

}  // namespace

void run_whatif(const Args& args, Tracer& tracer, Result& result) {
  const double scale = kPipelineScale;

  auto setup = [&] { return boot(scale, args.seed); };
  std::vector<double> setup_s;
  std::unique_ptr<WhatIfNode> node = timed_setups(kSetupRepsBefore, setup_s, setup);
  const std::string baseline_bytes = snapshot_bytes(*node->pipeline);
  ScenarioSource source{*node->w, node->engine->baseline(), args.seed};
  result.info("scale", scale);
  result.info("ases", static_cast<double>(node->w->ases));
  result.info("rib_entries", static_cast<double>(node->w->ribs.total_entries()));
  result.info("accepted_paths", static_cast<double>(node->pipeline->store().size()));
  result.info("countries", static_cast<double>(node->engine->baseline().size()));
  result.info("snapshot_bytes", static_cast<double>(baseline_bytes.size()));

  serve::HttpClient client;
  if (!client.connect("127.0.0.1", node->server->port())) {
    result.gate(false, "connect to the what-if server");
    return;
  }
  std::uint64_t failures = 0;
  auto post = [&](const std::string& text, std::uint64_t op) {
    auto span = tracer.span("http.post_whatif", op);
    std::optional<serve::HttpClientResponse> response = client.post(kTarget, text);
    ++result.attempted;
    if (!response || response->status != 200) {
      ++failures;
      return std::string{};
    }
    return std::move(response->body);
  };

  // Warm-up POST, dropped from the figures; its body is checked below.
  const scenario::Scenario first = source.next();
  const std::string first_body = post(scenario::to_text(first), 0);
  result.attempted = 0;
  failures = 0;

  std::optional<core::Pipeline::Checkpoint> baseline;
  if (args.trace) baseline.emplace(node->pipeline->checkpoint());
  Latencies ops;
  std::map<std::string, std::vector<double>> by_family;
  std::vector<core::Pipeline::ApplyResult> applies;
  const Window window{args};
  for (std::uint64_t op = 1;; ++op) {
    const bool traced = window.traced_now();
    const bool half_empty = traced ? ops.traced_ms.empty() : ops.plain_ms.empty();
    if (!window.open() && !half_empty) break;
    const scenario::Scenario s = source.next();
    const std::string text = scenario::to_text(s);
    tracer.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    (void)post(text, op);
    const double ms = ms_since(t0);
    ops.add(traced, ms);
    by_family[std::string{scenario::to_string(s.events[0].kind)}].push_back(ms);
    if (traced) replay_layers(*node, *baseline, text, tracer, op, applies);
  }
  tracer.set_enabled(false);
  result.failed = failures;
  result.gate(!first_body.empty() && failures == 0, "every POST /v1/whatif returned 200");
  for (const auto& [family, ms] : by_family) result.info("post_ms." + family, median(ms));

  {
    // The engine's memo counters are deterministic (every run starts from
    // the same checkpoint), so the cold report borrows them from a direct
    // run; everything else comes from a fresh pipeline.
    const scenario::Report direct = node->engine->run(first, kTopK);
    const scenario::ApplyResult edited = scenario::apply(
        first, node->w->world.graph, node->w->world.as_registry, node->w->ribs);
    std::unique_ptr<core::Pipeline> cold = node->w->make_pipeline();
    cold->load(edited.ribs);
    const scenario::Report report =
        scenario::build_report(first, edited.stats, direct.memo, node->engine->baseline(),
                               cold->all_countries(), kTopK);
    result.gate(serve::render_whatif_json(report, 1) == first_body,
                "the first scenario's JSON equals a cold recompute");
  }
  result.gate(snapshot_bytes(*node->pipeline) == baseline_bytes,
              "the baseline census bytes are unchanged after the run");

  report_common(args, ops, tracer, result);
  finish_setups(args, node, setup_s, setup, result);
  if (!args.trace) return;
  std::vector<double> fast, days, rebuilt, kept;
  for (const core::Pipeline::ApplyResult& a : applies) {
    fast.push_back(a.sanitize_fast_path ? 1.0 : 0.0);
    days.push_back(static_cast<double>(a.days_resanitized));
    rebuilt.push_back(static_cast<double>(a.shards_rebuilt));
    const double memos = static_cast<double>(a.country_memos_kept + a.country_memos_evicted);
    kept.push_back(memos > 0 ? static_cast<double>(a.country_memos_kept) / memos : 0.0);
  }
  double fast_share = 0;
  for (double f : fast) fast_share += f;
  result.metric("sanitize.fast_path_ratio",
                fast.empty() ? 0.0 : fast_share / static_cast<double>(fast.size()), "ratio");
  result.metric("sanitize.days_resanitized", median(days), "count");
  result.metric("core.shards_rebuilt", median(rebuilt), "count");
  result.metric("core.memo_kept_ratio", median(kept), "ratio");
  result.metric("scenario.memo_kept_ratio", median(kept), "ratio");
  result.metric("scenario.parse_us", tracer.per_op_ms("scenario.parse") * 1e3, "us");
  result.metric("scenario.apply_ms", tracer.per_op_ms("scenario.apply"), "ms");
  result.metric("core.apply_ms", tracer.per_op_ms("core.apply"), "ms");
  result.metric("core.census_ms", tracer.per_op_ms("core.census"), "ms");
  result.metric("core.restore_ms", tracer.per_op_ms("core.restore"), "ms");
  result.metric("scenario.report_ms", tracer.per_op_ms("scenario.report"), "ms");
  const serve::ServiceCounters counters = node->service.counters();
  result.metric("serve.status_4xx", static_cast<double>(counters.status_4xx), "count");
  result.metric("serve.status_5xx", static_cast<double>(counters.status_5xx), "count");
}

}  // namespace perfbench
