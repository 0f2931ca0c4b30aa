#include "robust/fault_plan.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <set>
#include <unordered_map>

#include "core/pipeline.hpp"
#include "core/sharded_path_store.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "robust/data_health.hpp"

namespace georank::robust {
namespace {

using geo::CountryCode;

struct Fixture {
  gen::World world;
  bgp::RibCollection ribs;
  core::Pipeline pipeline;

  Fixture()
      : world(gen::InternetGenerator{gen::mini_world_spec(21)}.generate()),
        ribs(gen::RibGenerator{world, gen::NoiseSpec{}, 5}.generate(5)),
        pipeline(world.geo_db, world.vps, world.asn_registry, world.graph,
                 config(world)) {
    pipeline.load(ribs);
  }

  static core::PipelineConfig config(const gen::World& world) {
    core::PipelineConfig cfg;
    cfg.sanitizer.clique = world.clique;
    cfg.sanitizer.route_server_asns = world.route_servers;
    return cfg;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::span<const sanitize::SanitizedPath> clean_paths() {
  return fixture().pipeline.sanitized().paths;
}

TEST(Perturb, DeterministicForIdenticalSpecs) {
  PerturbationSpec spec;
  spec.seed = 7;
  spec.drop_vps = 2;
  spec.corrupt_geo_fraction = 0.1;
  spec.drop_path_fraction = 0.05;
  PerturbationResult a = perturb(clean_paths(), spec);
  PerturbationResult b = perturb(clean_paths(), spec);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  EXPECT_EQ(a.dropped_vps, b.dropped_vps);
  EXPECT_EQ(a.corrupted_prefixes, b.corrupted_prefixes);
  EXPECT_EQ(a.dropped_paths, b.dropped_paths);
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].vp, b.paths[i].vp);
    EXPECT_EQ(a.paths[i].prefix, b.paths[i].prefix);
  }
}

TEST(Perturb, DimensionsDrawFromIndependentStreams) {
  PerturbationSpec vp_only;
  vp_only.seed = 11;
  vp_only.drop_vps = 3;
  PerturbationSpec combined = vp_only;
  combined.corrupt_geo_fraction = 0.1;
  combined.drop_path_fraction = 0.1;
  // Enabling other dimensions must not change which VPs are dropped.
  EXPECT_EQ(perturb(clean_paths(), vp_only).dropped_vps,
            perturb(clean_paths(), combined).dropped_vps);
}

TEST(Perturb, TargetedVpDropStaysInTargetCountry) {
  std::unordered_map<bgp::VpId, CountryCode, bgp::VpIdHash> hosted;
  for (const sanitize::SanitizedPath& p : clean_paths()) {
    hosted.emplace(p.vp, p.vp_country);
  }
  PerturbationSpec spec;
  spec.drop_vps = 2;
  spec.vp_target = CountryCode::of("AU");
  PerturbationResult result = perturb(clean_paths(), spec);
  ASSERT_EQ(result.dropped_vps.size(), 2u);
  for (bgp::VpId vp : result.dropped_vps) {
    EXPECT_EQ(hosted.at(vp), CountryCode::of("AU"));
  }
  for (const sanitize::SanitizedPath& p : result.paths) {
    for (bgp::VpId vp : result.dropped_vps) EXPECT_NE(p.vp, vp);
  }
}

TEST(Perturb, DropCountClampsToCandidates) {
  PerturbationSpec spec;
  spec.drop_vps = 1u << 20;  // far more VPs than exist
  PerturbationResult result = perturb(clean_paths(), spec);
  EXPECT_TRUE(result.paths.empty());
  std::set<bgp::VpId> distinct;
  for (const sanitize::SanitizedPath& p : clean_paths()) distinct.insert(p.vp);
  EXPECT_EQ(result.dropped_vps.size(), distinct.size());
}

TEST(Perturb, FullTargetedGeoCorruptionRemovesCountry) {
  CountryCode au = CountryCode::of("AU");
  PerturbationSpec spec;
  spec.corrupt_geo_fraction = 1.0;
  spec.geo_target = au;
  PerturbationResult result = perturb(clean_paths(), spec);
  ASSERT_FALSE(result.corrupted_prefixes.empty());
  EXPECT_EQ(result.corrupted_addresses.size(), 1u);
  EXPECT_GT(result.corrupted_addresses.at(au), 0u);
  for (const sanitize::SanitizedPath& p : result.paths) {
    EXPECT_NE(p.prefix_country, au);
  }
}

TEST(Perturb, FractionsAreClampedAndZeroSpecIsIdentity) {
  PerturbationSpec zero;
  PerturbationResult same = perturb(clean_paths(), zero);
  EXPECT_EQ(same.paths.size(), clean_paths().size());
  EXPECT_TRUE(same.dropped_vps.empty());
  EXPECT_EQ(same.dropped_paths, 0u);

  PerturbationSpec wild;
  wild.corrupt_geo_fraction = 42.0;  // clamped to 1
  wild.drop_path_fraction = -3.0;    // clamped to 0
  PerturbationResult all = perturb(clean_paths(), wild);
  EXPECT_TRUE(all.paths.empty());
  EXPECT_EQ(all.dropped_paths, 0u);
}

// Acceptance property: dropping up to k VPs or corrupting up to 10% of
// geo blocks never crashes or throws from the query paths.
TEST(Perturb, QueryPathsSurviveBoundedFaultsWithoutThrowing) {
  const Fixture& f = fixture();
  std::vector<CountryCode> census = f.pipeline.store().countries();
  const core::CountryRankings& rankings = f.pipeline.rankings();
  for (std::size_t drop = 0; drop <= 4; ++drop) {
    for (double geo_fraction : {0.0, 0.05, 0.10}) {
      PerturbationSpec spec;
      spec.seed = 100 + drop;
      spec.drop_vps = drop;
      spec.corrupt_geo_fraction = geo_fraction;
      EXPECT_NO_THROW({
        PerturbationResult result = perturb(clean_paths(), spec);
        core::ShardedPathStore store{result.paths};
        for (CountryCode cc : census) {
          core::CountryMetrics m = rankings.compute(store, cc);
          (void)m;
        }
        HealthInputs inputs;
        inputs.paths = result.paths;
        inputs.extra_geo_rejections = &result.corrupted_addresses;
        HealthReport health = compute_health(inputs);
        for (CountryCode cc : census) (void)health.tier_of(cc);
      }) << "drop=" << drop << " geo=" << geo_fraction;
    }
  }
}

// Acceptance property: a targeted perturbation flags exactly the
// perturbed country, with every other country's tier unchanged.
TEST(Perturb, HealthFlagsExactlyThePerturbedCountry) {
  CountryCode au = CountryCode::of("AU");
  HealthInputs clean_inputs;
  clean_inputs.paths = clean_paths();
  HealthReport clean = compute_health(clean_inputs);
  ASSERT_NE(clean.find(au), nullptr);

  PerturbationSpec spec;
  spec.corrupt_geo_fraction = 1.0;
  spec.geo_target = au;
  PerturbationResult result = perturb(clean_paths(), spec);
  HealthInputs inputs;
  inputs.paths = result.paths;
  inputs.extra_geo_rejections = &result.corrupted_addresses;
  HealthReport perturbed = compute_health(inputs);

  std::vector<CountryCode> flagged;
  for (const core::CountryHealth& h : clean.countries) {
    if (perturbed.tier_of(h.country) != h.overall) flagged.push_back(h.country);
  }
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], au);
  // All AU evidence is gone; the corruption shows up as lost consensus.
  EXPECT_EQ(perturbed.tier_of(au), core::ConfidenceTier::kInsufficient);
  const core::CountryHealth* after = perturbed.find(au);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->geolocated_addresses, 0u);
  EXPECT_GT(after->no_consensus_addresses, 0u);
}

TEST(Perturb, TargetedVpDropFlagsOnlyCountriesWithoutMargin) {
  CountryCode au = CountryCode::of("AU");
  core::DegradationPolicy policy;
  HealthInputs clean_inputs;
  clean_inputs.paths = clean_paths();
  HealthReport clean = compute_health(clean_inputs, policy);

  PerturbationSpec spec;
  spec.drop_vps = 2;
  spec.vp_target = au;
  PerturbationResult result = perturb(clean_paths(), spec);
  HealthInputs inputs;
  inputs.paths = result.paths;
  HealthReport perturbed = compute_health(inputs, policy);

  for (const core::CountryHealth& h : clean.countries) {
    if (h.country == au) continue;
    // Other countries lose at most the dropped VPs from their
    // international view; with margin above the policy minimum their
    // tier must not move.
    if (h.international_vps >= policy.min_vps + result.dropped_vps.size() &&
        h.national_vps >= policy.min_vps) {
      EXPECT_EQ(perturbed.tier_of(h.country), h.overall)
          << h.country.to_string();
    }
  }
  // AU itself lost national VPs.
  const core::CountryHealth* before = clean.find(au);
  const core::CountryHealth* after = perturbed.find(au);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->national_vps,
            before->national_vps - result.dropped_vps.size());
}

// ---------------------------------------------------------------- harness

void expect_identical(const RobustnessReport& a, const RobustnessReport& b) {
  ASSERT_EQ(a.curves.size(), b.curves.size());
  for (std::size_t c = 0; c < a.curves.size(); ++c) {
    EXPECT_EQ(a.curves[c].country, b.curves[c].country);
    ASSERT_EQ(a.curves[c].points.size(), b.curves[c].points.size());
    for (std::size_t p = 0; p < a.curves[c].points.size(); ++p) {
      const RobustnessPoint& x = a.curves[c].points[p];
      const RobustnessPoint& y = b.curves[c].points[p];
      EXPECT_EQ(x.dimension, y.dimension);
      EXPECT_EQ(x.trials, y.trials);
      for (auto [u, v] : {std::pair{x.severity, y.severity},
                          std::pair{x.cci, y.cci}, std::pair{x.ccn, y.ccn},
                          std::pair{x.ahi, y.ahi}, std::pair{x.ahn, y.ahn},
                          std::pair{x.worst, y.worst}}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(u),
                  std::bit_cast<std::uint64_t>(v));
      }
    }
  }
}

TEST(RobustnessHarness, ThrowsBeforeLoad) {
  const Fixture& f = fixture();
  core::Pipeline empty{f.world.geo_db, f.world.vps, f.world.asn_registry,
                       f.world.graph, Fixture::config(f.world)};
  RobustnessHarness harness{empty};
  EXPECT_THROW((void)harness.run(FaultPlan::defaults()), std::logic_error);
}

TEST(RobustnessHarness, CurvesCoverPlanAndStayInRange) {
  const Fixture& f = fixture();
  FaultPlan plan = FaultPlan::defaults();
  plan.trials = 2;
  RobustnessHarness harness{f.pipeline};
  RobustnessReport report = harness.run(plan);

  std::size_t steps = plan.vp_drop_steps.size() + plan.geo_corrupt_steps.size() +
                      plan.path_drop_steps.size();
  ASSERT_EQ(report.curves.size(), f.pipeline.store().countries().size());
  for (std::size_t c = 0; c < report.curves.size(); ++c) {
    const RobustnessCurve& curve = report.curves[c];
    EXPECT_EQ(curve.country, f.pipeline.store().countries()[c]);  // sorted
    ASSERT_EQ(curve.points.size(), steps);
    for (const RobustnessPoint& p : curve.points) {
      EXPECT_EQ(p.trials, plan.trials);
      for (double score : {p.cci, p.ccn, p.ahi, p.ahn, p.worst}) {
        EXPECT_GE(score, 0.0);
        EXPECT_LE(score, 1.0);
      }
      EXPECT_LE(p.worst, p.cci);
    }
    EXPECT_LE(curve.worst(), curve.points.front().worst);
  }
}

// Acceptance property: the robustness run is bit-identical across
// thread counts.
TEST(RobustnessHarness, BitIdenticalAcrossThreadCounts) {
  const Fixture& f = fixture();
  FaultPlan plan = FaultPlan::defaults();
  plan.trials = 2;
  RobustnessHarness harness{f.pipeline};

  ASSERT_EQ(setenv("GEORANK_THREADS", "1", 1), 0);
  RobustnessReport serial = harness.run(plan);
  ASSERT_EQ(setenv("GEORANK_THREADS", "7", 1), 0);
  RobustnessReport parallel = harness.run(plan);
  unsetenv("GEORANK_THREADS");
  expect_identical(serial, parallel);
}

TEST(RobustnessHarness, CountrySubsetRestrictsCurves) {
  const Fixture& f = fixture();
  FaultPlan plan;
  plan.vp_drop_steps = {1};
  plan.trials = 1;
  std::vector<CountryCode> subset{CountryCode::of("AU")};
  RobustnessReport report = RobustnessHarness{f.pipeline}.run(plan, subset);
  ASSERT_EQ(report.curves.size(), 1u);
  EXPECT_EQ(report.curves[0].country, CountryCode::of("AU"));
  ASSERT_EQ(report.curves[0].points.size(), 1u);
  EXPECT_EQ(report.curves[0].points[0].dimension, FaultDimension::kDropVps);
}

TEST(FaultPlanDefaults, MatchTheDocumentedSweep) {
  FaultPlan plan = FaultPlan::defaults();
  EXPECT_EQ(plan.vp_drop_steps, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(plan.geo_corrupt_steps, (std::vector<double>{0.05, 0.10}));
  EXPECT_EQ(plan.path_drop_steps, (std::vector<double>{0.05, 0.10}));
  EXPECT_EQ(plan.trials, 3u);
  EXPECT_EQ(plan.top_k, 10u);
}

TEST(FaultDimensionNames, AreStable) {
  EXPECT_EQ(to_string(FaultDimension::kDropVps), "drop-vps");
  EXPECT_EQ(to_string(FaultDimension::kCorruptGeo), "corrupt-geo");
  EXPECT_EQ(to_string(FaultDimension::kDropPaths), "drop-paths");
}

}  // namespace
}  // namespace georank::robust
