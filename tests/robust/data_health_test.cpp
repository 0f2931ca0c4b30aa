#include "robust/data_health.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/sharded_path_store.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"

namespace georank::robust {
namespace {

using geo::CountryCode;

sanitize::SanitizedPath make_path(std::uint32_t vp_ip, const char* vp_cc,
                                  bgp::Prefix prefix, const char* prefix_cc,
                                  std::uint64_t weight) {
  sanitize::SanitizedPath p;
  p.vp = bgp::VpId{vp_ip, vp_ip};
  p.vp_country = CountryCode::of(vp_cc);
  p.prefix = prefix;
  p.prefix_country = CountryCode::of(prefix_cc);
  p.weight = weight;
  p.path = bgp::AsPath{vp_ip, 2, 3};
  return p;
}

TEST(DataHealth, ClassifiesVpsAndCountsPrefixWeightOnce) {
  bgp::Prefix pfx{0x0a000000, 24};
  std::vector<sanitize::SanitizedPath> paths{
      make_path(1, "AU", pfx, "AU", 256),   // national VP
      make_path(2, "US", pfx, "AU", 256),   // international VP, same prefix
      make_path(3, "US", pfx, "AU", 256),   // another international VP
  };
  HealthInputs inputs;
  inputs.paths = paths;
  HealthReport report = compute_health(inputs);

  ASSERT_EQ(report.countries.size(), 1u);
  const core::CountryHealth& au = report.countries[0];
  EXPECT_EQ(au.country, CountryCode::of("AU"));
  EXPECT_EQ(au.national_vps, 1u);
  EXPECT_EQ(au.international_vps, 2u);
  EXPECT_EQ(au.accepted_prefixes, 1u);
  // Three paths over one prefix: the weight counts once.
  EXPECT_EQ(au.geolocated_addresses, 256u);
  EXPECT_DOUBLE_EQ(au.geo_consensus(), 1.0);
  EXPECT_EQ(au.national_tier, core::ConfidenceTier::kDegraded);
  EXPECT_EQ(au.international_tier, core::ConfidenceTier::kDegraded);
  EXPECT_EQ(au.overall, core::ConfidenceTier::kDegraded);
}

TEST(DataHealth, ReportIsSortedAndFindWorks) {
  std::vector<sanitize::SanitizedPath> paths{
      make_path(1, "DE", bgp::Prefix{0x0a000000, 24}, "US", 256),
      make_path(2, "US", bgp::Prefix{0x0b000000, 24}, "AU", 256),
      make_path(3, "AU", bgp::Prefix{0x0c000000, 24}, "DE", 256),
  };
  HealthInputs inputs;
  inputs.paths = paths;
  HealthReport report = compute_health(inputs);

  ASSERT_EQ(report.countries.size(), 3u);
  EXPECT_EQ(report.countries[0].country, CountryCode::of("AU"));
  EXPECT_EQ(report.countries[1].country, CountryCode::of("DE"));
  EXPECT_EQ(report.countries[2].country, CountryCode::of("US"));
  EXPECT_NE(report.find(CountryCode::of("DE")), nullptr);
  EXPECT_EQ(report.find(CountryCode::of("JP")), nullptr);
  // Absent country == no usable evidence.
  EXPECT_EQ(report.tier_of(CountryCode::of("JP")), core::ConfidenceTier::kInsufficient);
}

TEST(DataHealth, NoConsensusRejectionsAttributedToPluralityCountry) {
  std::vector<sanitize::SanitizedPath> paths{
      make_path(1, "US", bgp::Prefix{0x0a000000, 24}, "AU", 300),
  };
  geo::PrefixGeoResult geo_result;
  geo_result.no_consensus.push_back(geo::PrefixRejection{
      bgp::Prefix{0x0b000000, 24}, CountryCode::of("AU"), 700, 0.4});
  geo_result.no_consensus.push_back(geo::PrefixRejection{
      bgp::Prefix{0x0c000000, 24}, geo::kNoCountry, 512, 0.0});  // skipped

  HealthInputs inputs;
  inputs.paths = paths;
  inputs.prefix_geo = &geo_result;
  HealthReport report = compute_health(inputs);

  const core::CountryHealth* au = report.find(CountryCode::of("AU"));
  ASSERT_NE(au, nullptr);
  EXPECT_EQ(au->no_consensus_prefixes, 1u);
  EXPECT_EQ(au->no_consensus_addresses, 700u);
  EXPECT_DOUBLE_EQ(au->geo_consensus(), 0.3);
  EXPECT_EQ(au->geo_tier, core::ConfidenceTier::kDegraded);
  EXPECT_EQ(au->overall, core::ConfidenceTier::kDegraded);
}

TEST(DataHealth, ExtraGeoRejectionsFeedConsensus) {
  std::vector<sanitize::SanitizedPath> paths{
      make_path(1, "US", bgp::Prefix{0x0a000000, 24}, "AU", 256),
  };
  std::unordered_map<CountryCode, std::uint64_t, geo::CountryCodeHash> extra{
      {CountryCode::of("AU"), 768}};
  HealthInputs inputs;
  inputs.paths = paths;
  inputs.extra_geo_rejections = &extra;
  HealthReport report = compute_health(inputs);

  const core::CountryHealth* au = report.find(CountryCode::of("AU"));
  ASSERT_NE(au, nullptr);
  EXPECT_DOUBLE_EQ(au->geo_consensus(), 0.25);
  EXPECT_EQ(au->geo_tier, core::ConfidenceTier::kDegraded);
}

TEST(DataHealth, DropRatesFromLayerStats) {
  std::vector<sanitize::SanitizedPath> paths{
      make_path(1, "US", bgp::Prefix{0x0a000000, 24}, "AU", 256),
  };
  bgp::MrtParseStats ingest;
  ingest.lines = 200;
  ingest.parsed = 150;
  ingest.malformed = 50;
  sanitize::SanitizeStats stats;
  stats.total = 100;
  stats.accepted = 80;
  stats.unstable = 15;
  stats.loop = 5;

  HealthInputs inputs;
  inputs.paths = paths;
  inputs.ingest = &ingest;
  inputs.sanitize = &stats;
  HealthReport report = compute_health(inputs);
  EXPECT_DOUBLE_EQ(report.ingest_drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(report.sanitize_drop_rate, 0.20);
  EXPECT_DOUBLE_EQ(stats.drop_rate(), 0.20);
  EXPECT_EQ(stats.count(sanitize::FilterReason::kUnstable), 15u);
  EXPECT_EQ(stats.count(sanitize::FilterReason::kAccepted), 80u);
}

TEST(DataHealth, EmptyInputsYieldEmptyReport) {
  HealthInputs inputs;
  HealthReport report = compute_health(inputs);
  EXPECT_TRUE(report.countries.empty());
  EXPECT_EQ(report.count(core::ConfidenceTier::kHigh), 0u);
  EXPECT_DOUBLE_EQ(report.ingest_drop_rate, 0.0);
  EXPECT_DOUBLE_EQ(report.sanitize_drop_rate, 0.0);
}

TEST(DataHealth, ShardedOverloadMatchesSpanOverloadFieldForField) {
  // A mix of national, international and cross-country rows, plus a
  // no-consensus rejection, scored both ways: straight over the span and
  // shard-parallel over a ShardedPathStore built from the same rows.
  std::vector<sanitize::SanitizedPath> paths{
      make_path(1, "AU", bgp::Prefix{0x0a000000, 24}, "AU", 256),
      make_path(2, "US", bgp::Prefix{0x0a000000, 24}, "AU", 256),
      make_path(2, "US", bgp::Prefix{0x0b000000, 24}, "US", 512),
      make_path(3, "DE", bgp::Prefix{0x0c000000, 23}, "DE", 128),
      make_path(4, "AU", bgp::Prefix{0x0b000000, 24}, "US", 512),
  };
  geo::PrefixGeoResult geo_result;
  geo_result.no_consensus.push_back(geo::PrefixRejection{
      bgp::Prefix{0x0d000000, 24}, CountryCode::of("US"), 700, 0.4});
  sanitize::SanitizeStats stats;
  stats.total = 10;
  stats.accepted = 5;
  stats.loop = 5;
  HealthInputs inputs;
  inputs.paths = paths;
  inputs.prefix_geo = &geo_result;
  inputs.sanitize = &stats;

  HealthReport flat = compute_health(inputs);
  core::ShardedPathStore store{paths};
  HealthReport sharded = compute_health(store, inputs);

  EXPECT_DOUBLE_EQ(sharded.ingest_drop_rate, flat.ingest_drop_rate);
  EXPECT_DOUBLE_EQ(sharded.sanitize_drop_rate, flat.sanitize_drop_rate);
  ASSERT_EQ(sharded.countries.size(), flat.countries.size());
  for (std::size_t i = 0; i < flat.countries.size(); ++i) {
    const core::CountryHealth& a = flat.countries[i];
    const core::CountryHealth& b = sharded.countries[i];
    EXPECT_EQ(a.country, b.country);
    EXPECT_EQ(a.national_vps, b.national_vps) << a.country.to_string();
    EXPECT_EQ(a.international_vps, b.international_vps) << a.country.to_string();
    EXPECT_EQ(a.accepted_prefixes, b.accepted_prefixes) << a.country.to_string();
    EXPECT_EQ(a.geolocated_addresses, b.geolocated_addresses)
        << a.country.to_string();
    EXPECT_EQ(a.no_consensus_prefixes, b.no_consensus_prefixes);
    EXPECT_EQ(a.no_consensus_addresses, b.no_consensus_addresses);
    EXPECT_EQ(a.national_tier, b.national_tier);
    EXPECT_EQ(a.international_tier, b.international_tier);
    EXPECT_EQ(a.geo_tier, b.geo_tier);
    EXPECT_EQ(a.overall, b.overall);
  }
}

// ---------------------------------------------------------------- pipeline

TEST(DataHealth, PipelineOverloadMatchesAnnotatedMetrics) {
  gen::World world = gen::InternetGenerator{gen::mini_world_spec(21)}.generate();
  bgp::RibCollection ribs = gen::RibGenerator{world, gen::NoiseSpec{}, 5}.generate(5);
  core::PipelineConfig config;
  config.sanitizer.clique = world.clique;
  config.sanitizer.route_server_asns = world.route_servers;
  core::Pipeline pipeline{world.geo_db, world.vps, world.asn_registry,
                          world.graph, config};
  EXPECT_THROW((void)compute_health(pipeline), std::logic_error);
  pipeline.load(ribs);

  HealthReport report = compute_health(pipeline, config.degradation);
  ASSERT_FALSE(report.countries.empty());
  // The health report and the pipeline's confidence annotation are two
  // views of the same evidence: their tiers must agree per country.
  for (const core::CountryHealth& h : report.countries) {
    core::CountryMetrics m = pipeline.country(h.country);
    EXPECT_EQ(m.confidence, h.overall) << h.country.to_string();
    EXPECT_DOUBLE_EQ(m.geo_consensus, h.geo_consensus()) << h.country.to_string();
    EXPECT_EQ(m.national_vps, h.national_vps) << h.country.to_string();
    EXPECT_EQ(m.international_vps, h.international_vps) << h.country.to_string();
  }
}

TEST(DataHealth, PipelineMemoizedPathMatchesGenericAndStaysWarm) {
  gen::World world = gen::InternetGenerator{gen::mini_world_spec(23)}.generate();
  bgp::RibCollection ribs = gen::RibGenerator{world, gen::NoiseSpec{}, 5}.generate(5);
  core::PipelineConfig config;
  config.sanitizer.clique = world.clique;
  config.sanitizer.route_server_asns = world.route_servers;
  core::Pipeline pipeline{world.geo_db, world.vps, world.asn_registry,
                          world.graph, config};
  pipeline.apply_updates(ribs);

  // Matching policy routes through the country_health memo; recomputing
  // through the generic shard-parallel path must agree field for field.
  HealthReport memoized = compute_health(pipeline, config.degradation);
  EXPECT_GE(pipeline.cache_stats().healths, pipeline.store().shards().size());
  HealthInputs inputs;
  inputs.prefix_geo = &pipeline.sanitized().prefix_geo;
  inputs.sanitize = &pipeline.sanitized().stats;
  inputs.ingest = &pipeline.parse_stats();
  HealthReport generic =
      compute_health(pipeline.store(), inputs, config.degradation);
  EXPECT_DOUBLE_EQ(memoized.ingest_drop_rate, generic.ingest_drop_rate);
  EXPECT_DOUBLE_EQ(memoized.sanitize_drop_rate, generic.sanitize_drop_rate);
  ASSERT_EQ(memoized.countries.size(), generic.countries.size());
  for (std::size_t i = 0; i < generic.countries.size(); ++i) {
    const core::CountryHealth& a = generic.countries[i];
    const core::CountryHealth& b = memoized.countries[i];
    EXPECT_EQ(a.country, b.country);
    EXPECT_EQ(a.national_vps, b.national_vps) << a.country.to_string();
    EXPECT_EQ(a.international_vps, b.international_vps) << a.country.to_string();
    EXPECT_EQ(a.accepted_prefixes, b.accepted_prefixes) << a.country.to_string();
    EXPECT_EQ(a.geolocated_addresses, b.geolocated_addresses)
        << a.country.to_string();
    EXPECT_EQ(a.no_consensus_prefixes, b.no_consensus_prefixes)
        << a.country.to_string();
    EXPECT_EQ(a.no_consensus_addresses, b.no_consensus_addresses)
        << a.country.to_string();
    EXPECT_EQ(a.national_tier, b.national_tier);
    EXPECT_EQ(a.international_tier, b.international_tier);
    EXPECT_EQ(a.geo_tier, b.geo_tier);
    EXPECT_EQ(a.overall, b.overall);
  }

  // A non-matching policy must bypass the memo (its entries were tiered
  // under the configured thresholds) yet still report the same raw
  // evidence.
  core::DegradationPolicy stricter = config.degradation;
  stricter.min_vps = config.degradation.min_vps + 10;
  HealthReport strict_report = compute_health(pipeline, stricter);
  ASSERT_EQ(strict_report.countries.size(), memoized.countries.size());
  for (std::size_t i = 0; i < strict_report.countries.size(); ++i) {
    EXPECT_EQ(strict_report.countries[i].geolocated_addresses,
              memoized.countries[i].geolocated_addresses);
  }

  // A no-change re-apply keeps shard-backed health memos warm.
  pipeline.apply_updates(ribs);
  EXPECT_GE(pipeline.cache_stats().healths, pipeline.store().shards().size());
}

}  // namespace
}  // namespace georank::robust
