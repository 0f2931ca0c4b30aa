#include "core/country_rankings.hpp"

#include "core/sharded_path_store.hpp"

namespace georank::core {

namespace {

CountryMetrics metrics_from_views(const CountryRankings& rankings,
                                  geo::CountryCode country,
                                  const CountryView& national,
                                  const CountryView& international) {
  CountryMetrics out;
  out.country = country;

  out.national_vps = national.vp_count();
  out.international_vps = international.vp_count();
  out.national_addresses = national.address_weight();
  out.international_addresses = international.address_weight();

  out.ccn = rankings.cone_ranking(national);
  out.cci = rankings.cone_ranking(international);
  out.ahn = rankings.hegemony_ranking(national);
  out.ahi = rankings.hegemony_ranking(international);
  return out;
}

OutboundMetrics outbound_from_view(const CountryRankings& rankings,
                                   geo::CountryCode country,
                                   const CountryView& view) {
  OutboundMetrics out;
  out.country = country;
  out.vps = view.vp_count();
  out.foreign_addresses = view.address_weight();
  out.cco = rankings.cone_ranking(view);
  out.aho = rankings.hegemony_ranking(view);
  return out;
}

}  // namespace

rank::Ranking CountryRankings::cone_ranking(const CountryView& view) const {
  rank::CustomerCone cone{*relationships_};
  return cone.compute(view.paths()).by_addresses();
}

rank::Ranking CountryRankings::hegemony_ranking(const CountryView& view) const {
  rank::Hegemony hegemony{hegemony_};
  return hegemony.compute(view.paths()).ranking();
}

OutboundMetrics CountryRankings::compute_outbound(
    std::span<const sanitize::SanitizedPath> all_paths,
    geo::CountryCode country) const {
  return outbound_from_view(*this, country,
                            ViewBuilder::outbound(all_paths, country));
}

CountryMetrics CountryRankings::compute(
    std::span<const sanitize::SanitizedPath> all_paths,
    geo::CountryCode country) const {
  return metrics_from_views(*this, country,
                            ViewBuilder::national(all_paths, country),
                            ViewBuilder::international(all_paths, country));
}

CountryMetrics CountryRankings::compute(const ShardedPathStore& store,
                                        geo::CountryCode country) const {
  return metrics_from_views(*this, country, store.national_view(country),
                            store.international_view(country));
}

OutboundMetrics CountryRankings::compute_outbound(
    const ShardedPathStore& store, geo::CountryCode country) const {
  return outbound_from_view(*this, country, store.outbound_view(country));
}

}  // namespace georank::core
