// Extension: degraded-data robustness. The paper's rankings assume the
// measurement substrate is healthy — enough VPs per view, a geolocation
// DB that reaches consensus. This harness asks what happens when it is
// not: it scores every country's data health, then deterministically
// degrades the loaded world (drop VPs, corrupt geo blocks, drop paths)
// and traces how far each metric's top-10 drifts (NDCG@10 vs the clean
// baseline). Countries whose curves collapse under mild faults are the
// ones whose published rankings deserve a confidence caveat.
#include <cstdio>
#include <iostream>

#include "common/bench_world.hpp"
#include "robust/data_health.hpp"
#include "robust/fault_plan.hpp"

using namespace georank;

int main() {
  bench::print_banner("Extension: degraded-data robustness",
                      "Health tiers + ranking drift under injected faults");

  auto ctx = bench::make_context();

  robust::HealthReport health = robust::compute_health(*ctx->pipeline);
  std::printf("=== data health (%zu countries) ===\n", health.countries.size());
  util::Table census{{"tier", "countries"}};
  census.set_align(1, util::Align::kRight);
  for (core::ConfidenceTier tier :
       {core::ConfidenceTier::kHigh, core::ConfidenceTier::kDegraded,
        core::ConfidenceTier::kInsufficient}) {
    census.add_row({std::string(core::to_string(tier)),
                    std::to_string(health.count(tier))});
  }
  census.print(std::cout);

  util::Table detail{{"country", "natVP", "intlVP", "consensus", "tier"}};
  for (std::size_t c = 1; c <= 3; ++c) detail.set_align(c, util::Align::kRight);
  for (const core::CountryHealth& h : health.countries) {
    detail.add_row({h.country.to_string(), std::to_string(h.national_vps),
                    std::to_string(h.international_vps),
                    util::percent(h.geo_consensus()),
                    std::string(core::to_string(h.overall))});
  }
  detail.print(std::cout);
  std::printf("\n");

  // The paper's case-study countries, swept with the default fault plan.
  std::vector<geo::CountryCode> countries{geo::CountryCode::of("AU"),
                                          geo::CountryCode::of("JP"),
                                          geo::CountryCode::of("RU"),
                                          geo::CountryCode::of("US")};
  robust::RobustnessHarness harness{*ctx->pipeline};
  robust::RobustnessReport report =
      harness.run(robust::FaultPlan::defaults(), countries);

  std::printf("=== ranking drift under faults (mean NDCG@10 vs clean) ===\n");
  util::Table table{{"country", "fault", "severity", "CCI", "CCN", "AHI",
                     "AHN", "worst"}};
  for (std::size_t c = 2; c <= 7; ++c) table.set_align(c, util::Align::kRight);
  for (const robust::RobustnessCurve& curve : report.curves) {
    for (const robust::RobustnessPoint& p : curve.points) {
      std::string severity = p.dimension == robust::FaultDimension::kDropVps
                                 ? std::to_string(static_cast<int>(p.severity))
                                 : util::percent(p.severity);
      table.add_row({curve.country.to_string(),
                     std::string(to_string(p.dimension)), severity,
                     util::percent(p.cci), util::percent(p.ccn),
                     util::percent(p.ahi), util::percent(p.ahn),
                     util::percent(p.worst)});
    }
  }
  table.print(std::cout);

  std::printf("\nreading: 100%% = the top-10 survives the fault untouched;\n"
              "low CCN/AHN rows flag national views with no redundancy.\n");
  return 0;
}
