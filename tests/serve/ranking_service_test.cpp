// Unit coverage for serve::RankingService: routing, parameter
// validation, snapshot lifecycle (503 before publish, RCU swap after),
// and the rendered-response LRU. Snapshots here are hand-built — the
// service only reads the struct, so tests stay fast and targeted.
#include "serve/ranking_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "serve/json.hpp"

namespace georank::serve {
namespace {

using geo::CountryCode;

core::CountryMetrics make_metrics(CountryCode country,
                                  std::vector<rank::ScoredAs> scores) {
  core::CountryMetrics m;
  m.country = country;
  m.cci = rank::Ranking::from_scores(scores);
  for (rank::ScoredAs& s : scores) s.score *= 0.5;
  m.ccn = rank::Ranking::from_scores(scores);
  for (rank::ScoredAs& s : scores) s.score *= 0.5;
  m.ahi = rank::Ranking::from_scores(scores);
  for (rank::ScoredAs& s : scores) s.score *= 0.5;
  m.ahn = rank::Ranking::from_scores(scores);
  m.national_vps = 4;
  m.international_vps = 9;
  m.national_addresses = 1000;
  m.international_addresses = 2000;
  m.confidence = core::ConfidenceTier::kHigh;
  m.geo_consensus = 0.875;
  return m;
}

std::shared_ptr<const Snapshot> make_snapshot(
    std::uint64_t id, std::vector<core::CountryMetrics> countries,
    std::string label = {}) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->meta.id = id;
  snapshot->meta.created_unix = 1000 + id;
  snapshot->meta.label = std::move(label);
  std::sort(countries.begin(), countries.end(),
            [](const core::CountryMetrics& a, const core::CountryMetrics& b) {
              return a.country.raw() < b.country.raw();
            });
  snapshot->countries = std::move(countries);
  for (const core::CountryMetrics& m : snapshot->countries) {
    core::CountryHealth h;
    h.country = m.country;
    h.national_vps = m.national_vps;
    h.international_vps = m.international_vps;
    h.overall = m.confidence;
    snapshot->health.countries.push_back(h);
  }
  return snapshot;
}

std::shared_ptr<const Snapshot> world_v1() {
  return make_snapshot(
      1,
      {make_metrics(CountryCode::of("AU"),
                    {{3356, 0.9}, {1299, 0.5}, {174, 0.3}}),
       make_metrics(CountryCode::of("JP"), {{2914, 0.8}, {4713, 0.6}})},
      "v1");
}

TEST(RankingService, Returns503BeforeFirstPublish) {
  RankingService service;
  EXPECT_EQ(service.current(), nullptr);
  Response r = service.handle("/v1/rankings?country=AU");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("no snapshot"), std::string::npos);
  // The index and metrics still answer (they are how you probe a
  // booting server).
  EXPECT_EQ(service.handle("/").status, 200);
  EXPECT_EQ(service.handle("/metrics").status, 200);
}

TEST(RankingService, ParseMetricAcceptsCaseInsensitiveNames) {
  EXPECT_EQ(parse_metric("cci"), Metric::kCci);
  EXPECT_EQ(parse_metric("CCN"), Metric::kCcn);
  EXPECT_EQ(parse_metric("Ahi"), Metric::kAhi);
  EXPECT_EQ(parse_metric("ahn"), Metric::kAhn);
  EXPECT_FALSE(parse_metric("cti").has_value());
  EXPECT_FALSE(parse_metric("").has_value());
}

TEST(RankingService, RankingsEndpointRendersTopK) {
  RankingService service;
  service.publish(world_v1());
  Response r = service.handle("/v1/rankings?country=AU&metric=cci&k=2");
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  EXPECT_NE(r.body.find("\"snapshot_id\":1"), std::string::npos);
  EXPECT_NE(r.body.find("\"country\":\"AU\""), std::string::npos);
  EXPECT_NE(r.body.find("\"asn\":3356"), std::string::npos);
  EXPECT_NE(r.body.find("\"asn\":1299"), std::string::npos);
  // k=2 cuts the third entry, and the metric filter drops the others.
  EXPECT_EQ(r.body.find("\"asn\":174"), std::string::npos);
  EXPECT_EQ(r.body.find("\"ahn\""), std::string::npos);

  Response all = service.handle("/v1/rankings?country=AU");
  ASSERT_EQ(all.status, 200);
  for (const char* metric : {"\"cci\"", "\"ccn\"", "\"ahi\"", "\"ahn\""}) {
    EXPECT_NE(all.body.find(metric), std::string::npos) << metric;
  }
}

TEST(RankingService, RankingsValidation) {
  RankingService service;
  service.publish(world_v1());
  EXPECT_EQ(service.handle("/v1/rankings").status, 400);            // no country
  EXPECT_EQ(service.handle("/v1/rankings?country=zzz").status, 400);  // 3 letters
  EXPECT_EQ(service.handle("/v1/rankings?country=A1").status, 400);
  EXPECT_EQ(service.handle("/v1/rankings?country=ZZ").status, 404);  // absent
  EXPECT_EQ(service.handle("/v1/rankings?country=AU&metric=xxx").status, 400);
  EXPECT_EQ(service.handle("/v1/rankings?country=AU&k=0").status, 400);
  EXPECT_EQ(service.handle("/v1/rankings?country=AU&k=abc").status, 400);
}

TEST(RankingService, AsLookupScansAllCountries) {
  RankingService service;
  service.publish(world_v1());
  Response r = service.handle("/v1/as/3356");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"country\":\"AU\""), std::string::npos);
  EXPECT_EQ(r.body.find("\"country\":\"JP\""), std::string::npos);

  // Unknown AS: 200 with an empty countries array (the query ran).
  Response unknown = service.handle("/v1/as/65000");
  ASSERT_EQ(unknown.status, 200);
  EXPECT_NE(unknown.body.find("\"countries\":[]"), std::string::npos);

  EXPECT_EQ(service.handle("/v1/as/notanumber").status, 400);
  EXPECT_EQ(service.handle("/v1/as/12x").status, 400);
  // "/v1/as/" normalizes to "/v1/as", which is not a route at all.
  EXPECT_EQ(service.handle("/v1/as/").status, 404);
}

TEST(RankingService, UnknownRoutesAre404) {
  RankingService service;
  service.publish(world_v1());
  EXPECT_EQ(service.handle("/v1/nope").status, 404);
  EXPECT_EQ(service.handle("/v2/rankings?country=AU").status, 404);
  EXPECT_EQ(service.handle("/favicon.ico").status, 404);
  // Trailing slash normalizes onto the known route.
  EXPECT_EQ(service.handle("/v1/health/").status, 200);
}

TEST(RankingService, PublishSwapsSnapshotsRcuStyle) {
  RankingService service;
  service.publish(world_v1());
  std::shared_ptr<const Snapshot> held = service.current();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->meta.id, 1u);

  service.publish(make_snapshot(
      2, {make_metrics(CountryCode::of("AU"), {{174, 0.95}, {3356, 0.4}})},
      "v2"));
  // A reader that grabbed the old snapshot keeps a consistent world...
  EXPECT_EQ(held->meta.id, 1u);
  EXPECT_EQ(held->find(CountryCode::of("JP"))->country.to_string(), "JP");
  // ...while new requests see the new one (JP dropped out).
  EXPECT_EQ(service.current()->meta.id, 2u);
  EXPECT_EQ(service.handle("/v1/rankings?country=JP").status, 404);
  Response r = service.handle("/v1/rankings?country=AU&metric=cci&k=1");
  EXPECT_NE(r.body.find("\"asn\":174"), std::string::npos);
  EXPECT_EQ(service.counters().active_snapshot_id, 2u);
  EXPECT_EQ(service.counters().reloads, 2u);
}

TEST(RankingService, CacheHitsAndReloadInvalidation) {
  RankingService service;
  service.publish(world_v1());
  const std::string target = "/v1/rankings?country=AU";
  Response first = service.handle(target);
  Response second = service.handle(target);
  EXPECT_EQ(first.body, second.body);
  ServiceCounters c = service.counters();
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.cache_misses, 1u);

  // Error responses are never cached.
  (void)service.handle("/v1/rankings?country=ZZ");
  (void)service.handle("/v1/rankings?country=ZZ");
  EXPECT_EQ(service.counters().cache_hits, 1u);

  // A reload must invalidate: id 2 ranks AU differently.
  service.publish(make_snapshot(
      2, {make_metrics(CountryCode::of("AU"), {{174, 0.95}})}));
  Response after = service.handle(target);
  EXPECT_NE(after.body, first.body);
  EXPECT_NE(after.body.find("\"snapshot_id\":2"), std::string::npos);
}

TEST(RankingService, CacheCapacityZeroDisablesCaching) {
  RankingServiceOptions options;
  options.cache_capacity = 0;
  RankingService service{options};
  service.publish(world_v1());
  (void)service.handle("/v1/rankings?country=AU");
  (void)service.handle("/v1/rankings?country=AU");
  EXPECT_EQ(service.counters().cache_hits, 0u);
}

TEST(RankingService, LruEvictsLeastRecentlyUsed) {
  RankingServiceOptions options;
  options.cache_capacity = 2;
  RankingService service{options};
  service.publish(world_v1());
  (void)service.handle("/v1/rankings?country=AU");  // miss -> cached
  (void)service.handle("/v1/rankings?country=JP");  // miss -> cached
  (void)service.handle("/v1/rankings?country=AU");  // hit, AU now MRU
  (void)service.handle("/v1/health");               // miss -> evicts JP
  (void)service.handle("/v1/rankings?country=AU");  // still a hit
  (void)service.handle("/v1/rankings?country=JP");  // evicted -> miss
  ServiceCounters c = service.counters();
  EXPECT_EQ(c.cache_hits, 2u);
  EXPECT_EQ(c.cache_misses, 4u);
}

TEST(RankingService, CountersClassifyStatuses) {
  RankingService service;
  (void)service.handle("/v1/rankings?country=AU");  // 503
  service.publish(world_v1());
  (void)service.handle("/v1/rankings?country=AU");  // 200
  (void)service.handle("/v1/rankings?country=zz");  // 400 (lowercase)
  (void)service.handle("/v1/nope");                 // 404
  ServiceCounters c = service.counters();
  EXPECT_EQ(c.requests, 4u);
  EXPECT_EQ(c.status_2xx, 1u);
  EXPECT_EQ(c.status_4xx, 2u);
  EXPECT_EQ(c.status_5xx, 1u);

  std::string metrics = service.metrics_text();
  EXPECT_NE(metrics.find("georank_requests_total 4"), std::string::npos);
  EXPECT_NE(metrics.find("georank_responses_total{class=\"5xx\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("georank_snapshot_active_id 1"), std::string::npos);
}

TEST(RankingService, JsonRenderingIsDeterministic) {
  // The torn-response loopback test depends on renders being
  // byte-identical for the same (target, snapshot): verify with two
  // service instances over equal snapshots.
  RankingService a;
  RankingService b;
  a.publish(world_v1());
  b.publish(world_v1());
  for (const char* target :
       {"/v1/rankings?country=AU", "/v1/health", "/v1/as/3356",
        "/v1/delta?country=AU"}) {
    EXPECT_EQ(a.handle(target).body, b.handle(target).body) << target;
  }
}

TEST(JsonWriter, EscapesAndFormats) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\n\t\x01");
  w.key("d").value(0.5);
  w.key("n").null();
  w.key("t").value(true);
  w.key("neg").value(static_cast<std::int64_t>(-3));
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\",\"d\":0.5,\"n\":null,"
            "\"t\":true,\"neg\":-3}");
  EXPECT_EQ(json_double(1.0), "1");
  EXPECT_EQ(json_double(0.875), "0.875");
  // Non-finite values are not representable in JSON numbers.
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace georank::serve
