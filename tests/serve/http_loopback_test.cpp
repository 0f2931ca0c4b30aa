// Loopback integration tests: a real HttpServer on an ephemeral port,
// driven through real sockets by serve::HttpClient. The headline test
// hammers the server from several client threads while the main thread
// keeps publishing new snapshots; every response must byte-equal the
// canonical render of exactly one published snapshot — a torn response
// (bytes from two snapshots, or a half-updated cache entry) fails the
// EXPECT. Runs under ThreadSanitizer in CI (scripts/ci.sh tsan tier).
#include "serve/http_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/http_client.hpp"

namespace georank::serve {
namespace {

using geo::CountryCode;

core::CountryMetrics metrics_variant(std::uint64_t variant) {
  core::CountryMetrics m;
  m.country = CountryCode::of("AU");
  std::vector<rank::ScoredAs> scores;
  for (std::uint32_t asn = 1; asn <= 8; ++asn) {
    // Scores depend on the variant, so every snapshot renders a
    // distinct, easily distinguishable body.
    scores.push_back({asn * 100, 1.0 / static_cast<double>(asn + variant)});
  }
  m.cci = rank::Ranking::from_scores(scores);
  m.ccn = m.cci;
  m.ahi = m.cci;
  m.ahn = m.cci;
  m.national_vps = 3 + variant;
  m.international_vps = 7;
  m.confidence = core::ConfidenceTier::kHigh;
  m.geo_consensus = 1.0;
  return m;
}

std::shared_ptr<const Snapshot> snapshot_variant(std::uint64_t id) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->meta.id = id;
  snapshot->meta.created_unix = id;
  snapshot->meta.label = "variant-" + std::to_string(id);
  snapshot->countries.push_back(metrics_variant(id));
  core::CountryHealth h;
  h.country = CountryCode::of("AU");
  h.national_vps = 3 + id;
  snapshot->health.countries.push_back(h);
  return snapshot;
}

TEST(HttpLoopback, ServesRequestsOnEphemeralPort) {
  RankingService service;
  service.publish(snapshot_variant(1));
  HttpServerOptions options;
  options.threads = 2;
  HttpServer server{service, options};
  server.start();
  ASSERT_NE(server.port(), 0);

  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  auto response = client.get("/v1/rankings?country=AU&metric=cci&k=3");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  // The socket path returns exactly what the in-process API renders.
  EXPECT_EQ(response->body,
            service.handle("/v1/rankings?country=AU&metric=cci&k=3").body);

  // Keep-alive: a second request reuses the connection.
  auto again = client.get("/v1/health");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 200);
  EXPECT_EQ(server.stats().connections, 1u);
  EXPECT_EQ(server.stats().requests, 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpLoopback, StatusCodesTravelTheSocket) {
  RankingService service;
  service.publish(snapshot_variant(1));
  HttpServer server{service, {}};
  server.start();
  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  for (auto [target, status] :
       std::vector<std::pair<const char*, int>>{{"/v1/rankings?country=ZZ", 404},
                                                {"/v1/rankings?country=zzz", 400},
                                                {"/v1/as/notanumber", 400},
                                                {"/v1/nope", 404},
                                                {"/metrics", 200}}) {
    auto response = client.get(target);
    ASSERT_TRUE(response.has_value()) << target;
    EXPECT_EQ(response->status, status) << target;
  }
  // /metrics carries both service- and transport-level counters.
  auto metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("georank_requests_total"), std::string::npos);
  EXPECT_NE(metrics->body.find("georank_http_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("georank_request_latency_seconds_bucket"),
            std::string::npos);

  // A target with an embedded space makes a malformed request line; the
  // server answers 400 and closes, and the client survives to reconnect.
  auto malformed = client.get("/bad target");
  ASSERT_TRUE(malformed.has_value());
  EXPECT_EQ(malformed->status, 400);
  EXPECT_EQ(malformed->connection, "close");
  auto recovered = client.get("/v1/health");
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->status, 200);
  EXPECT_GE(server.stats().parse_errors, 1u);
  server.stop();
}

TEST(HttpLoopback, NoTornResponsesAcrossConcurrentReloads) {
  // The TSan centerpiece. Canonical bodies are precomputed for every
  // snapshot the reloader will publish; clients assert set membership.
  constexpr std::uint64_t kVariants = 4;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 150;
  constexpr int kReloads = 60;
  const std::string target = "/v1/rankings?country=AU&metric=cci&k=8";

  std::set<std::string> canonical;
  for (std::uint64_t v = 1; v <= kVariants; ++v) {
    RankingService oracle;
    oracle.publish(snapshot_variant(v));
    canonical.insert(oracle.handle(target).body);
  }
  ASSERT_EQ(canonical.size(), kVariants) << "variants must render distinctly";

  RankingService service;
  service.publish(snapshot_variant(1));
  HttpServerOptions options;
  options.threads = 4;
  HttpServer server{service, options};
  server.start();

  std::atomic<int> torn{0};
  std::atomic<int> transport_failures{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      if (!client.connect("127.0.0.1", server.port())) {
        transport_failures.fetch_add(1 + c * 0);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto response = client.get(target);
        if (!response || response->status != 200) {
          transport_failures.fetch_add(1);
          continue;
        }
        if (canonical.count(response->body) == 0) {
          torn.fetch_add(1);
        } else {
          ok.fetch_add(1);
        }
      }
    });
  }

  // Reload churn while the clients hammer: each publish is an RCU swap
  // plus a cache reset, exactly the path a live feed exercises.
  for (int r = 0; r < kReloads; ++r) {
    service.publish(snapshot_variant(1 + (static_cast<std::uint64_t>(r) %
                                          kVariants)));
    std::this_thread::yield();
  }
  for (std::thread& t : clients) t.join();
  server.stop();

  EXPECT_EQ(torn.load(), 0) << "response bytes mixed across snapshots";
  EXPECT_EQ(transport_failures.load(), 0);
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);
  EXPECT_GE(service.counters().reloads, static_cast<std::uint64_t>(kReloads));
}

TEST(HttpLoopback, StopUnblocksIdleKeepAliveConnections) {
  RankingService service;
  service.publish(snapshot_variant(1));
  HttpServerOptions options;
  options.threads = 2;
  options.read_timeout_ms = 30000;  // longer than the test — stop must win
  HttpServer server{service, options};
  server.start();

  // Park a worker in recv() on an idle keep-alive connection.
  HttpClient idle;
  ASSERT_TRUE(idle.connect("127.0.0.1", server.port()));
  auto response = idle.get("/v1/health");
  ASSERT_TRUE(response.has_value());

  // stop() must shut the idle connection down and join promptly rather
  // than waiting out the 30s read timeout (the test would time out).
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(idle.get("/v1/health").has_value());
}

TEST(HttpLoopback, LiveHealthTravelsTheSocketAndInvalidatesCache) {
  // The acceptance path for the staleness machine: a feeder publishing
  // HealthMonitor snapshots must change what real HTTP clients see on
  // /v1/health and /metrics — including re-rendering the health body
  // when only the live state (not the snapshot) changed.
  RankingService service;
  service.publish(snapshot_variant(1));
  HttpServer server{service, {}};
  server.start();
  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // No feeder attached: no "live" block, attached gauge reads 0.
  auto detached = client.get("/v1/health");
  ASSERT_TRUE(detached.has_value());
  EXPECT_EQ(detached->status, 200);
  EXPECT_EQ(detached->body.find("\"live\""), std::string::npos);
  auto metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("georank_live_feeder_attached 0"),
            std::string::npos);

  LiveHealth health;
  health.valid = true;
  health.state = robust::ServingState::kStale;
  health.age_seconds = 420.0;
  health.stale_after_seconds = 300.0;
  health.degraded_after_seconds = 900.0;
  health.entered[static_cast<std::size_t>(robust::ServingState::kStale)] = 1;
  service.set_live_health(health);

  auto stale = client.get("/v1/health");
  ASSERT_TRUE(stale.has_value());
  EXPECT_NE(stale->body.find("\"state\":\"stale\""), std::string::npos);
  // Same snapshot id, yet the body changed: the live-health version is
  // part of the cache key, so no stale "fresh" body was served.
  EXPECT_NE(stale->body, detached->body);

  health.state = robust::ServingState::kDegraded;
  health.age_seconds = 1200.0;
  health.entered[static_cast<std::size_t>(robust::ServingState::kDegraded)] = 1;
  health.reopen_failures = 3;
  health.last_backoff_seconds = 2.5;
  service.set_live_health(health);

  auto degraded = client.get("/v1/health");
  ASSERT_TRUE(degraded.has_value());
  EXPECT_NE(degraded->body.find("\"state\":\"degraded\""), std::string::npos);
  EXPECT_NE(degraded->body.find("\"reopen_failures\":3"), std::string::npos);

  metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("georank_live_feeder_attached 1"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("georank_live_health_state 2"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "georank_live_health_transitions_total{state=\"degraded\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("georank_live_backoff_attempts_total 3"),
            std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace georank::serve
