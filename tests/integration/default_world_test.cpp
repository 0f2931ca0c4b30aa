// Locks in the paper-level findings on the full evaluation world, so
// regressions in the generator, sanitizer or metrics that would silently
// corrupt the reproduction fail loudly here. Each assertion mirrors a
// claim in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <bit>

#include "core/pipeline.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"

namespace georank {
namespace {

using namespace gen::asn;
using geo::CountryCode;

class DefaultWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new gen::WorldSpec(gen::default_world_spec());
    world_ = new gen::World(gen::InternetGenerator{*spec_}.generate());
    bgp::RibCollection ribs =
        gen::RibGenerator{*world_, spec_->noise, 7}.generate(5);
    core::PipelineConfig cfg;
    cfg.sanitizer.clique = world_->clique;
    cfg.sanitizer.route_server_asns = world_->route_servers;
    pipeline_ = new core::Pipeline(world_->geo_db, world_->vps,
                                   world_->asn_registry, world_->graph, cfg);
    pipeline_->load(ribs);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete world_;
    delete spec_;
    pipeline_ = nullptr;
    world_ = nullptr;
    spec_ = nullptr;
  }

  static gen::WorldSpec* spec_;
  static gen::World* world_;
  static core::Pipeline* pipeline_;
};

gen::WorldSpec* DefaultWorldTest::spec_ = nullptr;
gen::World* DefaultWorldTest::world_ = nullptr;
core::Pipeline* DefaultWorldTest::pipeline_ = nullptr;

TEST_F(DefaultWorldTest, FilteringSharesMatchTable1Shape) {
  const auto& s = pipeline_->sanitized().stats;
  auto share = [&](std::size_t n) {
    return static_cast<double>(n) / static_cast<double>(s.total);
  };
  EXPECT_GT(share(s.accepted), 0.60);
  EXPECT_LT(share(s.accepted), 0.90);
  EXPECT_GT(share(s.vp_no_location), 0.05);   // the dominant reject reason
  EXPECT_GT(share(s.unstable), 0.03);
  EXPECT_LT(share(s.loop), 0.01);
  EXPECT_LT(share(s.unallocated), 0.01);
  EXPECT_LT(share(s.prefix_no_location), 0.02);
}

TEST_F(DefaultWorldTest, AustraliaTable5Shape) {
  core::CountryMetrics au = pipeline_->country(CountryCode::of("AU"));
  // Telstra's split: domestic AS in the AHI top-3, international AS high
  // internationally but ~nothing nationally.
  EXPECT_LE(*au.ahi.rank_of(kTelstra), 3u);
  EXPECT_LE(*au.ahi.rank_of(kTelstraIntl), 3u);
  EXPECT_GT(au.ccn.rank_of(kTelstraIntl).value_or(999), 20u);
  EXPECT_LT(au.ahn.score_of(kTelstraIntl), 0.02);
  // Vocus: cone rank 1 nationally, hegemony far below.
  EXPECT_EQ(*au.ccn.rank_of(kVocus), 1u);
  EXPECT_GT(au.ccn.score_of(kVocus), 2.0 * au.ahi.score_of(kVocus));
  // Arelion ranks high on CCI by inheriting Vocus's cone (paper: #1; the
  // exact winner among Vocus's three tier-1 upstreams varies with the
  // world seed).
  EXPECT_LE(*au.cci.rank_of(kArelion), 4u);
}

TEST_F(DefaultWorldTest, JapanTable6Shape) {
  core::CountryMetrics jp = pipeline_->country(CountryCode::of("JP"));
  EXPECT_EQ(*jp.cci.rank_of(kNttAmerica), 1u);
  EXPECT_EQ(*jp.ahi.rank_of(kNttAmerica), 1u);
  EXPECT_GT(jp.ccn.rank_of(kNttAmerica).value_or(999), 5u);  // ~invisible nationally
  EXPECT_LE(*jp.ahn.rank_of(kKddi), 3u);
  EXPECT_LE(*jp.cci.rank_of(kGtt), 3u);           // transit cone into JP
  EXPECT_LT(jp.ahn.score_of(kGtt), 0.02);         // ...with no national paths
}

TEST_F(DefaultWorldTest, RussiaTable7Shape) {
  core::CountryMetrics ru = pipeline_->country(CountryCode::of("RU"));
  EXPECT_EQ(*ru.ahi.rank_of(kRostelecom), 1u);
  EXPECT_EQ(*ru.ahn.rank_of(kRostelecom), 1u);
  // Lumen: the cone/paths paradox.
  EXPECT_EQ(*ru.cci.rank_of(kLumen), 1u);
  EXPECT_GT(ru.cci.score_of(kLumen), 0.7);
  EXPECT_LT(ru.ccn.score_of(kLumen), 0.05);
  EXPECT_LT(ru.ahi.score_of(kLumen), 0.5 * ru.cci.score_of(kLumen));
}

TEST_F(DefaultWorldTest, UnitedStatesTable8Shape) {
  core::CountryMetrics us = pipeline_->country(CountryCode::of("US"));
  EXPECT_EQ(*us.cci.rank_of(kLumen), 1u);
  EXPECT_EQ(*us.ccn.rank_of(kLumen), 1u);
  EXPECT_EQ(*us.ahn.rank_of(kLumen), 1u);
  // Hurricane: hegemony outruns its cone rank (liberal peering).
  EXPECT_LE(*us.ahi.rank_of(kHurricane), 4u);
}

TEST_F(DefaultWorldTest, AmazonEffectTable9) {
  core::CountryMetrics au = pipeline_->country(CountryCode::of("AU"));
  rank::Ranking ahc = pipeline_->ahc(world_->as_registry, CountryCode::of("AU"));
  EXPECT_GT(au.ahn.score_of(kAmazon), 0.0);      // prefix geolocation sees it
  EXPECT_DOUBLE_EQ(ahc.score_of(kAmazon), 0.0);  // registration-keyed AHC doesn't
}

TEST_F(DefaultWorldTest, SovietBlocFigure7) {
  const auto& paths = pipeline_->sanitized().paths;
  const auto& rankings = pipeline_->rankings();
  geo::CountryCode ru = CountryCode::of("RU");
  auto max_ru_ahi = [&](const char* cc) {
    core::CountryView view =
        core::ViewBuilder::international(paths, CountryCode::of(cc));
    rank::Ranking ahi = rankings.hegemony_ranking(view);
    double best = 0.0;
    for (const auto& e : ahi.entries()) {
      auto reg = world_->as_registry.find(e.asn);
      if (reg != world_->as_registry.end() && reg->second == ru) {
        best = std::max(best, e.score);
      }
    }
    return best;
  };
  for (const char* cc : {"KZ", "KG", "TJ", "TM"}) {
    EXPECT_GT(max_ru_ahi(cc), 0.2) << cc;
  }
  EXPECT_LT(max_ru_ahi("UA"), 0.05);
  EXPECT_LT(max_ru_ahi("DE"), 0.05);
}

TEST_F(DefaultWorldTest, OutboundViewsHaveEgressGateways) {
  core::OutboundMetrics au = pipeline_->outbound(CountryCode::of("AU"));
  ASSERT_FALSE(au.aho.empty());
  EXPECT_GT(au.vps, 0u);
  // Telstra's international gateway carries a big share of egress.
  EXPECT_GT(au.aho.score_of(kTelstraIntl) + au.aho.score_of(kVocus) +
                au.aho.score_of(kTelstra),
            0.3);
}

TEST_F(DefaultWorldTest, GlobalConeRankingTopIsTier1) {
  rank::Ranking ccg = pipeline_->global_cone_by_as_count();
  bgp::Asn top = ccg.entries()[0].asn;
  EXPECT_TRUE(std::binary_search(world_->clique.begin(), world_->clique.end(),
                                 top));
}

void expect_bitwise_equal(const rank::Ranking& a, const rank::Ranking& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.entries()[i].asn, b.entries()[i].asn) << "position " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.entries()[i].score),
              std::bit_cast<std::uint64_t>(b.entries()[i].score))
        << "AS " << a.entries()[i].asn;
  }
}

// The zero-copy sharded path (Pipeline::country/outbound) must be
// bit-for-bit identical to the copy-based span oracle's computation for
// EVERY country on the full evaluation world — same iteration order,
// same floating-point accumulation, same ranking bytes.
TEST_F(DefaultWorldTest, IndexedPipelineMatchesCopyBasedComputationBitForBit) {
  const auto& paths = pipeline_->sanitized().paths;
  const core::CountryRankings& rankings = pipeline_->rankings();
  for (geo::CountryCode cc : pipeline_->store().countries()) {
    core::CountryMetrics indexed = pipeline_->country(cc);
    core::CountryMetrics copied = rankings.compute(paths, cc);
    ASSERT_EQ(indexed.country, copied.country);
    ASSERT_EQ(indexed.national_vps, copied.national_vps) << cc.to_string();
    ASSERT_EQ(indexed.international_vps, copied.international_vps);
    ASSERT_EQ(indexed.national_addresses, copied.national_addresses);
    ASSERT_EQ(indexed.international_addresses, copied.international_addresses);
    expect_bitwise_equal(indexed.cci, copied.cci);
    expect_bitwise_equal(indexed.ccn, copied.ccn);
    expect_bitwise_equal(indexed.ahi, copied.ahi);
    expect_bitwise_equal(indexed.ahn, copied.ahn);

    core::OutboundMetrics out_indexed = pipeline_->outbound(cc);
    core::OutboundMetrics out_copied = rankings.compute_outbound(paths, cc);
    ASSERT_EQ(out_indexed.vps, out_copied.vps);
    ASSERT_EQ(out_indexed.foreign_addresses, out_copied.foreign_addresses);
    expect_bitwise_equal(out_indexed.cco, out_copied.cco);
    expect_bitwise_equal(out_indexed.aho, out_copied.aho);
  }
}

}  // namespace
}  // namespace georank
