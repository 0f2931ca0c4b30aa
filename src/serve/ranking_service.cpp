#include "serve/ranking_service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "serve/json.hpp"
#include "util/strings.hpp"

namespace georank::serve {
namespace {

// ------------------------------------------------------------ request URI

/// Decoded query parameters, in request order.
struct Query {
  std::vector<std::pair<std::string, std::string>> params;

  [[nodiscard]] const std::string* find(std::string_view key) const {
    for (const auto& [k, v] : params) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

std::string percent_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && hex(s[i + 1]) >= 0 &&
               hex(s[i + 2]) >= 0) {
      out += static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

Query parse_query(std::string_view query) {
  Query q;
  if (query.empty()) return q;
  for (std::string_view field : util::split(query, '&')) {
    if (field.empty()) continue;
    std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      q.params.emplace_back(percent_decode(field), "");
    } else {
      q.params.emplace_back(percent_decode(field.substr(0, eq)),
                            percent_decode(field.substr(eq + 1)));
    }
  }
  return q;
}

Response error_response(int status, std::string_view message) {
  JsonWriter w;
  w.begin_object().key("error").value(message).end_object();
  return Response{status, "application/json", w.take()};
}

/// Reads the required `country` parameter into `country`; returns the
/// 400 to answer with when it is missing or not a country code.
std::optional<Response> parse_country(const Query& query,
                                      geo::CountryCode& country) {
  const std::string* text = query.find("country");
  if (text == nullptr) return error_response(400, "missing country parameter");
  auto parsed = geo::CountryCode::parse(*text);
  if (!parsed) return error_response(400, "bad country code '" + *text + "'");
  country = *parsed;
  return std::nullopt;
}

/// Reads the optional top-k parameter, `key` taking precedence over
/// `alias`, into `top_k` clamped to `max_top_k` (`top_k` keeps its
/// default when neither is given); returns the 400, naming `key`, when
/// the value is not a positive integer.
std::optional<Response> parse_top_k(const Query& query, std::string_view key,
                                    std::string_view alias,
                                    std::size_t max_top_k, std::size_t& top_k) {
  const std::string* text = query.find(key);
  if (text == nullptr) text = query.find(alias);
  if (text == nullptr) return std::nullopt;
  auto k = util::parse_int<std::size_t>(*text);
  if (!k || *k == 0) {
    return error_response(400, "bad " + std::string(key) + " '" + *text + "'");
  }
  top_k = std::min(*k, max_top_k);
  return std::nullopt;
}

constexpr Metric kAllMetrics[] = {Metric::kCci, Metric::kCcn, Metric::kAhi,
                                  Metric::kAhn};

void write_top_entries(JsonWriter& w, const rank::Ranking& ranking,
                       std::size_t top_k) {
  w.begin_array();
  const std::size_t n = std::min(top_k, ranking.size());
  for (std::size_t i = 0; i < n; ++i) {
    const rank::ScoredAs& entry = ranking.entries()[i];
    w.begin_object();
    w.key("rank").value(static_cast<std::uint64_t>(i + 1));
    w.key("asn").value(static_cast<std::uint64_t>(entry.asn));
    w.key("score").value(entry.score);
    w.end_object();
  }
  w.end_array();
}

void write_optional_rank(JsonWriter& w, const std::optional<std::size_t>& rank) {
  if (rank) {
    w.value(static_cast<std::uint64_t>(*rank));
  } else {
    w.null();
  }
}

/// A delta's fields, written into the object the caller has open:
/// /v1/delta's body and each what-if metric block share them.
void write_rank_delta_fields(JsonWriter& w, const core::RankDelta& delta) {
  w.key("shifts").begin_array();
  for (const core::RankShift& shift : delta.shifts) {
    w.begin_object();
    w.key("asn").value(static_cast<std::uint64_t>(shift.asn));
    w.key("before_rank");
    write_optional_rank(w, shift.before_rank);
    w.key("after_rank");
    write_optional_rank(w, shift.after_rank);
    w.key("before_score").value(shift.before_score);
    w.key("after_score").value(shift.after_score);
    w.key("rank_change").value(static_cast<std::int64_t>(shift.rank_change()));
    w.key("score_change").value(shift.score_change());
    w.key("entered").value(shift.entered());
    w.key("left").value(shift.left());
    w.end_object();
  }
  w.end_array();
  auto write_asns = [&w](const std::vector<bgp::Asn>& asns) {
    w.begin_array();
    for (bgp::Asn asn : asns) w.value(static_cast<std::uint64_t>(asn));
    w.end_array();
  };
  w.key("entries");
  write_asns(delta.entries());
  w.key("exits");
  write_asns(delta.exits());
  w.key("max_movement").value(static_cast<std::int64_t>(delta.max_movement()));
  w.key("agreement").value(delta.agreement());
}

}  // namespace

std::optional<Metric> parse_metric(std::string_view text) noexcept {
  std::string lower;
  for (char c : text) {
    lower += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  if (lower == "cci") return Metric::kCci;
  if (lower == "ccn") return Metric::kCcn;
  if (lower == "ahi") return Metric::kAhi;
  if (lower == "ahn") return Metric::kAhn;
  return std::nullopt;
}

std::string_view to_string(Metric metric) noexcept {
  switch (metric) {
    case Metric::kCci: return "cci";
    case Metric::kCcn: return "ccn";
    case Metric::kAhi: return "ahi";
    case Metric::kAhn: return "ahn";
  }
  return "?";
}

const rank::Ranking& ranking_of(const core::CountryMetrics& metrics,
                                Metric metric) {
  return core::select_metric(metrics, metric);
}

RankingService::RankingService(RankingServiceOptions options)
    : options_(options) {
  if (options_.history_limit == 0) options_.history_limit = 1;
}

void RankingService::publish(std::shared_ptr<const Snapshot> snapshot) {
  {
    std::lock_guard lock{history_mutex_};
    history_.push_back(snapshot);
    while (history_.size() > options_.history_limit) history_.pop_front();
  }
  {
    std::unique_lock lock{current_mutex_};
    current_ = std::move(snapshot);
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  // Old-snapshot keys would never be queried again; drop them eagerly
  // so dead snapshots are not pinned by cached bodies.
  std::lock_guard lock{cache_mutex_};
  cache_lru_.clear();
  cache_index_.clear();
}

std::shared_ptr<const Snapshot> RankingService::current() const {
  std::shared_lock lock{current_mutex_};
  return current_;
}

RankingService::HistoryPair RankingService::latest_pair() {
  std::lock_guard lock{history_mutex_};
  HistoryPair pair;
  if (history_.empty()) return pair;
  pair.after = history_.back();
  pair.before = history_.size() >= 2 ? history_[history_.size() - 2]
                                     : history_.back();
  return pair;
}

std::optional<RankingService::DeltaResult> RankingService::delta(
    geo::CountryCode country, Metric metric, std::size_t top_k) {
  HistoryPair pair = latest_pair();
  if (!pair.after) return std::nullopt;
  const core::CountryMetrics* before = pair.before->find(country);
  const core::CountryMetrics* after = pair.after->find(country);
  if (before == nullptr && after == nullptr) return std::nullopt;
  static const rank::Ranking kEmpty;
  DeltaResult result;
  result.before_id = pair.before->meta.id;
  result.after_id = pair.after->meta.id;
  result.delta = core::compare_rankings(
      before != nullptr ? ranking_of(*before, metric) : kEmpty,
      after != nullptr ? ranking_of(*after, metric) : kEmpty, top_k);
  return result;
}

std::optional<core::Timeline> RankingService::timeline(geo::CountryCode country) {
  std::vector<std::shared_ptr<const Snapshot>> snapshots;
  {
    std::lock_guard lock{history_mutex_};
    snapshots.assign(history_.begin(), history_.end());
  }
  std::vector<core::TimelinePoint> points;
  for (const auto& snapshot : snapshots) {
    const core::CountryMetrics* metrics = snapshot->find(country);
    if (metrics == nullptr) continue;
    core::TimelinePoint point;
    point.label = snapshot->meta.label.empty()
                      ? std::to_string(snapshot->meta.id)
                      : snapshot->meta.label;
    point.metrics = *metrics;
    points.push_back(std::move(point));
  }
  if (points.empty()) return std::nullopt;
  return core::Timeline{std::move(points)};
}

Response RankingService::handle(std::string_view target) {
  return handle("GET", target, {});
}

Response RankingService::handle(std::string_view method,
                                std::string_view target,
                                std::string_view body) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t qmark = target.find('?');
  std::string_view path = target.substr(0, qmark);
  while (path.size() > 1 && path.back() == '/') path.remove_suffix(1);
  const std::string_view query = qmark == std::string_view::npos
                                     ? std::string_view{}
                                     : target.substr(qmark + 1);

  Response response;
  if (path == "/v1/whatif") {
    response = method == "POST"
                   ? render_whatif(query, body)
                   : error_response(405, "/v1/whatif requires POST");
  } else if (method == "POST") {
    response = error_response(405, "POST is only served on /v1/whatif");
  } else {
    response = route(target, path, query);
  }
  if (response.status >= 500) {
    status_5xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status >= 400) {
    status_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    status_2xx_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

Response RankingService::route(std::string_view target, std::string_view path,
                               std::string_view query) {
  if (path == "/metrics") {
    return Response{200, "text/plain; version=0.0.4", metrics_text()};
  }

  std::shared_ptr<const Snapshot> snapshot = current();
  if (path == "/" || path == "" || path == "/v1") {
    return render_index(snapshot.get());
  }

  const bool known_route = path == "/v1/rankings" || path == "/v1/health" ||
                           path == "/v1/delta" ||
                           path.starts_with("/v1/as/");
  if (!known_route) return error_response(404, "unknown path");
  if (snapshot == nullptr) {
    return error_response(503, "no snapshot published yet");
  }

  // Cache: every 200 render below is a pure function of (target,
  // snapshot ids), so the key embeds the ids and a reload simply stops
  // hitting. Delta depends on the previous snapshot too.
  std::string key;
  if (path == "/v1/delta") {
    HistoryPair pair = latest_pair();
    key = std::string(target) + "#" +
          std::to_string(pair.before ? pair.before->meta.id : 0) + "/" +
          std::to_string(pair.after ? pair.after->meta.id : 0);
  } else if (path == "/v1/health") {
    // Health embeds the live-staleness block, which moves independently
    // of the snapshot: version the key so stale never serves as fresh.
    key = std::string(target) + "#" + std::to_string(snapshot->meta.id) + "@" +
          std::to_string(
              live_health_version_.load(std::memory_order_acquire));
  } else {
    key = std::string(target) + "#" + std::to_string(snapshot->meta.id);
  }
  if (auto cached = cache_get(key)) {
    return Response{200, "application/json", std::move(*cached)};
  }

  Response response;
  if (path == "/v1/rankings") {
    response = render_rankings(*snapshot, query);
  } else if (path == "/v1/health") {
    response = render_health(*snapshot);
  } else if (path == "/v1/delta") {
    response = render_delta(query);
  } else {
    response = render_as_lookup(*snapshot, path.substr(std::strlen("/v1/as/")));
  }
  if (response.status == 200) cache_put(key, response.body);
  return response;
}

Response RankingService::render_index(const Snapshot* snapshot) const {
  JsonWriter w;
  w.begin_object();
  w.key("service").value("georank");
  w.key("snapshot_id");
  if (snapshot != nullptr) {
    w.value(snapshot->meta.id);
  } else {
    w.null();
  }
  w.key("endpoints").begin_array();
  w.value("/v1/rankings?country=CC[&metric=cci|ccn|ahi|ahn][&k=N]");
  w.value("/v1/as/{asn}");
  w.value("/v1/health");
  w.value("/v1/delta?country=CC[&metric=cci|ccn|ahi|ahn][&top=N]");
  w.value("/v1/whatif[?top=N] (POST a scenario DSL text)");
  w.value("/metrics");
  w.end_array();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response RankingService::render_rankings(const Snapshot& snapshot,
                                         std::string_view query_text) const {
  Query query = parse_query(query_text);
  geo::CountryCode country;
  if (auto error = parse_country(query, country)) return std::move(*error);

  std::optional<Metric> only_metric;
  if (const std::string* metric_text = query.find("metric")) {
    only_metric = parse_metric(*metric_text);
    if (!only_metric) {
      return error_response(400, "bad metric '" + *metric_text +
                                     "' (want cci|ccn|ahi|ahn)");
    }
  }

  std::size_t top_k = options_.default_top_k;
  if (auto error = parse_top_k(query, "k", "top", options_.max_top_k, top_k)) {
    return std::move(*error);
  }

  const core::CountryMetrics* metrics = snapshot.find(country);
  if (metrics == nullptr) {
    return error_response(404,
                          "no rankings for country " + country.to_string());
  }

  JsonWriter w;
  w.begin_object();
  w.key("snapshot_id").value(snapshot.meta.id);
  w.key("country").value(country.to_string());
  w.key("confidence").value(core::to_string(metrics->confidence));
  w.key("geo_consensus").value(metrics->geo_consensus);
  w.key("national_vps").value(static_cast<std::uint64_t>(metrics->national_vps));
  w.key("international_vps")
      .value(static_cast<std::uint64_t>(metrics->international_vps));
  w.key("national_addresses").value(metrics->national_addresses);
  w.key("international_addresses").value(metrics->international_addresses);
  w.key("rankings").begin_object();
  for (Metric metric : kAllMetrics) {
    if (only_metric && metric != *only_metric) continue;
    w.key(to_string(metric));
    write_top_entries(w, ranking_of(*metrics, metric), top_k);
  }
  w.end_object();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response RankingService::render_as_lookup(const Snapshot& snapshot,
                                          std::string_view asn_text) const {
  auto asn = util::parse_int<bgp::Asn>(asn_text);
  if (!asn) {
    return error_response(400, "bad asn '" + std::string(asn_text) + "'");
  }
  JsonWriter w;
  w.begin_object();
  w.key("snapshot_id").value(snapshot.meta.id);
  w.key("asn").value(static_cast<std::uint64_t>(*asn));
  w.key("countries").begin_array();
  for (const core::CountryMetrics& metrics : snapshot.countries) {
    bool any = false;
    for (Metric metric : kAllMetrics) {
      if (ranking_of(metrics, metric).rank_of(*asn)) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    w.begin_object();
    w.key("country").value(metrics.country.to_string());
    w.key("confidence").value(core::to_string(metrics.confidence));
    w.key("metrics").begin_array();
    for (Metric metric : kAllMetrics) {
      const rank::Ranking& ranking = ranking_of(metrics, metric);
      auto rank = ranking.rank_of(*asn);
      if (!rank) continue;
      w.begin_object();
      w.key("metric").value(to_string(metric));
      w.key("rank").value(static_cast<std::uint64_t>(*rank));
      w.key("score").value(ranking.score_of(*asn));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response RankingService::render_health(const Snapshot& snapshot) const {
  const robust::HealthReport& health = snapshot.health;
  const LiveHealth live = live_health();
  JsonWriter w;
  w.begin_object();
  w.key("snapshot_id").value(snapshot.meta.id);
  if (live.valid) {
    w.key("live").begin_object();
    w.key("state").value(robust::to_string(live.state));
    w.key("age_seconds").value(live.age_seconds);
    w.key("stale_after_seconds").value(live.stale_after_seconds);
    w.key("degraded_after_seconds").value(live.degraded_after_seconds);
    w.key("transitions").begin_object();
    for (std::size_t i = 0; i < robust::kServingStateCount; ++i) {
      w.key(robust::to_string(static_cast<robust::ServingState>(i)))
          .value(live.entered[i]);
    }
    w.end_object();
    w.key("reopen_failures").value(live.reopen_failures);
    w.key("reopen_successes").value(live.reopen_successes);
    w.key("last_backoff_seconds").value(live.last_backoff_seconds);
    w.end_object();
  }
  w.key("policy").begin_object();
  w.key("min_vps").value(static_cast<std::uint64_t>(health.policy.min_vps));
  w.key("min_geo_consensus").value(health.policy.min_geo_consensus);
  w.end_object();
  w.key("ingest_drop_rate").value(health.ingest_drop_rate);
  w.key("sanitize_drop_rate").value(health.sanitize_drop_rate);
  w.key("tiers").begin_object();
  w.key("high").value(
      static_cast<std::uint64_t>(health.count(core::ConfidenceTier::kHigh)));
  w.key("degraded").value(static_cast<std::uint64_t>(
      health.count(core::ConfidenceTier::kDegraded)));
  w.key("insufficient").value(static_cast<std::uint64_t>(
      health.count(core::ConfidenceTier::kInsufficient)));
  w.end_object();
  w.key("countries").begin_array();
  for (const core::CountryHealth& h : health.countries) {
    w.begin_object();
    w.key("country").value(h.country.to_string());
    w.key("national_vps").value(static_cast<std::uint64_t>(h.national_vps));
    w.key("international_vps")
        .value(static_cast<std::uint64_t>(h.international_vps));
    w.key("accepted_prefixes")
        .value(static_cast<std::uint64_t>(h.accepted_prefixes));
    w.key("geolocated_addresses").value(h.geolocated_addresses);
    w.key("no_consensus_prefixes")
        .value(static_cast<std::uint64_t>(h.no_consensus_prefixes));
    w.key("no_consensus_addresses").value(h.no_consensus_addresses);
    w.key("geo_consensus").value(h.geo_consensus());
    w.key("national").value(core::to_string(h.national_tier));
    w.key("international").value(core::to_string(h.international_tier));
    w.key("geo").value(core::to_string(h.geo_tier));
    w.key("overall").value(core::to_string(h.overall));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response RankingService::render_delta(std::string_view query_text) {
  Query query = parse_query(query_text);
  geo::CountryCode country;
  if (auto error = parse_country(query, country)) return std::move(*error);
  Metric metric = Metric::kCci;
  if (const std::string* metric_text = query.find("metric")) {
    auto parsed = parse_metric(*metric_text);
    if (!parsed) {
      return error_response(400, "bad metric '" + *metric_text +
                                     "' (want cci|ccn|ahi|ahn)");
    }
    metric = *parsed;
  }
  std::size_t top_k = options_.default_top_k;
  if (auto error = parse_top_k(query, "top", "k", options_.max_top_k, top_k)) {
    return std::move(*error);
  }

  std::optional<DeltaResult> result = delta(country, metric, top_k);
  if (!result) {
    return error_response(404, "no rankings for country " +
                                   country.to_string() +
                                   " in any retained snapshot");
  }

  JsonWriter w;
  w.begin_object();
  w.key("country").value(country.to_string());
  w.key("metric").value(to_string(metric));
  w.key("top").value(static_cast<std::uint64_t>(top_k));
  w.key("before_snapshot_id").value(result->before_id);
  w.key("after_snapshot_id").value(result->after_id);
  write_rank_delta_fields(w, result->delta);
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response RankingService::render_whatif(std::string_view query_text,
                                       std::string_view body) {
  scenario::WhatIfEngine* engine = whatif_.load(std::memory_order_acquire);
  if (engine == nullptr) {
    return error_response(
        503, "no what-if engine attached (serving without RIB data)");
  }
  std::shared_ptr<const Snapshot> snapshot = current();
  if (snapshot == nullptr) {
    return error_response(503, "no snapshot published yet");
  }

  Query query = parse_query(query_text);
  std::size_t top_k = options_.default_top_k;
  if (auto error = parse_top_k(query, "top", "k", options_.max_top_k, top_k)) {
    return std::move(*error);
  }

  scenario::Scenario parsed;
  try {
    parsed = scenario::parse(body);
  } catch (const scenario::ScenarioParseError& e) {
    return error_response(400, e.what());
  }

  // The rendered body is a pure function of (scenario content, snapshot
  // id, top_k): the canonical-text hash keys the LRU alongside the id,
  // and publish() clears the cache, so a republish can never serve a
  // stale counterfactual.
  const std::string key =
      "POST /v1/whatif?top=" + std::to_string(top_k) + "#" +
      std::to_string(scenario::content_hash(parsed)) + "@" +
      std::to_string(snapshot->meta.id);
  if (auto cached = cache_get(key)) {
    return Response{200, "application/json", std::move(*cached)};
  }

  scenario::Report report;
  try {
    report = engine->run(parsed, top_k);
  } catch (const scenario::ApplyError& e) {
    return error_response(400, e.what());
  }
  Response response{200, "application/json",
                    render_whatif_json(report, snapshot->meta.id)};
  cache_put(key, response.body);
  return response;
}

std::string render_whatif_json(const scenario::Report& report,
                               std::uint64_t snapshot_id) {
  JsonWriter w;
  w.begin_object();
  w.key("snapshot_id").value(snapshot_id);
  w.key("scenario").begin_object();
  w.key("name").value(report.scenario.name);
  w.key("seed").value(report.scenario.seed);
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(report.scenario_hash));
  w.key("hash").value(hash_hex);
  w.key("events").value(static_cast<std::uint64_t>(report.scenario.events.size()));
  w.end_object();
  w.key("top").value(static_cast<std::uint64_t>(report.top_k));
  w.key("apply").begin_object();
  w.key("edges_removed").value(static_cast<std::uint64_t>(report.apply.edges_removed));
  w.key("edges_added").value(static_cast<std::uint64_t>(report.apply.edges_added));
  w.key("prefixes_hijacked")
      .value(static_cast<std::uint64_t>(report.apply.prefixes_hijacked));
  w.key("prefixes_rerouted")
      .value(static_cast<std::uint64_t>(report.apply.prefixes_rerouted));
  w.key("entries_kept").value(static_cast<std::uint64_t>(report.apply.entries_kept));
  w.key("entries_rerouted")
      .value(static_cast<std::uint64_t>(report.apply.entries_rerouted));
  w.key("entries_withdrawn")
      .value(static_cast<std::uint64_t>(report.apply.entries_withdrawn));
  w.end_object();
  w.key("memo").begin_object();
  w.key("shards_kept").value(static_cast<std::uint64_t>(report.memo.shards_kept));
  w.key("shards_rebuilt")
      .value(static_cast<std::uint64_t>(report.memo.shards_rebuilt));
  w.key("memos_kept").value(static_cast<std::uint64_t>(report.memo.memos_kept));
  w.key("memos_evicted")
      .value(static_cast<std::uint64_t>(report.memo.memos_evicted));
  w.end_object();
  w.key("countries_total")
      .value(static_cast<std::uint64_t>(report.countries_total));
  w.key("countries_changed")
      .value(static_cast<std::uint64_t>(report.shifts.size()));
  w.key("shifts").begin_array();
  for (const scenario::CountryShift& shift : report.shifts) {
    w.begin_object();
    w.key("country").value(shift.country.to_string());
    w.key("in_baseline").value(shift.in_baseline);
    w.key("in_counterfactual").value(shift.in_counterfactual);
    w.key("confidence_before").value(core::to_string(shift.confidence_before));
    w.key("confidence_after").value(core::to_string(shift.confidence_after));
    for (Metric metric : kAllMetrics) {
      w.key(to_string(metric)).begin_object();
      write_rank_delta_fields(w, shift.delta(metric));
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::optional<std::string> RankingService::cache_get(const std::string& key) {
  if (options_.cache_capacity == 0) return std::nullopt;
  std::lock_guard lock{cache_mutex_};
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void RankingService::cache_put(const std::string& key, const std::string& body) {
  if (options_.cache_capacity == 0) return;
  std::lock_guard lock{cache_mutex_};
  if (cache_index_.contains(key)) return;  // raced render; first wins
  cache_lru_.emplace_front(key, body);
  cache_index_[key] = cache_lru_.begin();
  while (cache_lru_.size() > options_.cache_capacity) {
    cache_index_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
  }
}

ServiceCounters RankingService::counters() const {
  ServiceCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  c.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  c.status_2xx = status_2xx_.load(std::memory_order_relaxed);
  c.status_4xx = status_4xx_.load(std::memory_order_relaxed);
  c.status_5xx = status_5xx_.load(std::memory_order_relaxed);
  c.reloads = reloads_.load(std::memory_order_relaxed);
  if (auto snapshot = current()) c.active_snapshot_id = snapshot->meta.id;
  return c;
}

void RankingService::set_ingest(const IngestCounters& counters) {
  const std::lock_guard<std::mutex> lock(ingest_mutex_);
  ingest_ = counters;
}

IngestCounters RankingService::ingest() const {
  const std::lock_guard<std::mutex> lock(ingest_mutex_);
  return ingest_;
}

void RankingService::set_live_health(const LiveHealth& health) {
  {
    const std::lock_guard<std::mutex> lock(ingest_mutex_);
    if (live_health_ == health) return;  // no change, keep the cache
    live_health_ = health;
  }
  live_health_version_.fetch_add(1, std::memory_order_release);
}

LiveHealth RankingService::live_health() const {
  const std::lock_guard<std::mutex> lock(ingest_mutex_);
  return live_health_;
}

std::string RankingService::metrics_text() const {
  ServiceCounters c = counters();
  IngestCounters in = ingest();
  std::string out;
  auto line = [&out](std::string_view name, std::uint64_t value) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  auto fline = [&out](std::string_view name, double value) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  line("georank_requests_total", c.requests);
  out += "georank_responses_total{class=\"2xx\"} " +
         std::to_string(c.status_2xx) + "\n";
  out += "georank_responses_total{class=\"4xx\"} " +
         std::to_string(c.status_4xx) + "\n";
  out += "georank_responses_total{class=\"5xx\"} " +
         std::to_string(c.status_5xx) + "\n";
  line("georank_cache_hits_total", c.cache_hits);
  line("georank_cache_misses_total", c.cache_misses);
  line("georank_snapshot_reloads_total", c.reloads);
  line("georank_snapshot_active_id", c.active_snapshot_id);
  // Live-ingest evidence: always rendered (zeros before any feeder
  // reports) so dashboards can rely on the series existing.
  line("georank_ingest_updates_applied_total", in.updates_applied);
  line("georank_ingest_announces_total", in.announces);
  line("georank_ingest_withdraws_total", in.withdraws);
  line("georank_ingest_spurious_withdrawals_total", in.spurious_withdrawals);
  line("georank_ingest_out_of_order_total", in.out_of_order);
  line("georank_ingest_day_out_of_range_total", in.day_out_of_range);
  line("georank_ingest_parse_lines_total", in.parse_lines);
  line("georank_ingest_parse_malformed_total", in.parse_malformed);
  line("georank_live_republishes_total", in.republishes);
  fline("georank_live_republish_seconds_sum", in.republish_seconds_sum);
  fline("georank_live_republish_seconds_last", in.last_republish_seconds);
  line("georank_live_last_batch_size", in.last_batch);
  line("georank_live_shed_total", in.shed);
  line("georank_live_checkpoints_total", in.checkpoints);
  // Staleness state machine (DESIGN.md §4g). The attached gauge keeps
  // the zeros below honest: 0 means "no live feeder", not "fresh".
  const LiveHealth live = live_health();
  line("georank_live_feeder_attached", live.valid ? 1 : 0);
  line("georank_live_health_state",
       static_cast<std::uint64_t>(static_cast<std::uint8_t>(live.state)));
  fline("georank_live_health_age_seconds", live.age_seconds);
  for (std::size_t i = 0; i < robust::kServingStateCount; ++i) {
    out += "georank_live_health_transitions_total{state=\"";
    out += robust::to_string(static_cast<robust::ServingState>(i));
    out += "\"} " + std::to_string(live.entered[i]) + "\n";
  }
  line("georank_live_backoff_attempts_total", live.reopen_failures);
  line("georank_live_reopen_successes_total", live.reopen_successes);
  fline("georank_live_backoff_seconds_last", live.last_backoff_seconds);
  return out;
}

}  // namespace georank::serve
