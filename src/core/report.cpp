#include "core/report.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace georank::core {

CountryReport build_country_report(const Pipeline& pipeline,
                                   const rank::AsRegistry& registry,
                                   geo::CountryCode country,
                                   const ReportOptions& options) {
  CountryReport report;
  report.country = country;
  report.metrics = pipeline.country(country);
  if (options.include_outbound) report.outbound = pipeline.outbound(country);
  if (options.include_baselines) {
    report.ahc = pipeline.ahc(registry, country);
    report.cti = pipeline.cti(country);
  }
  report.sovereignty =
      summarize_sovereignty(report.metrics, registry, options.top_k);
  return report;
}

std::string render_country_report(const CountryReport& report,
                                  const ReportNameResolver& names,
                                  const ReportOptions& options) {
  std::ostringstream os;
  auto name_of = [&](bgp::Asn asn) {
    if (names) {
      std::string n = names(asn);
      if (!n.empty()) return n;
    }
    return "AS" + std::to_string(asn);
  };

  os << "=== " << report.country.to_string() << " ===\n";
  os << "national VPs " << report.metrics.national_vps << ", international VPs "
     << report.metrics.international_vps;
  if (report.outbound.vps) {
    os << ", outbound VPs " << report.outbound.vps;
  }
  os << "\n";
  os << "confidence: " << to_string(report.metrics.confidence)
     << " (geo consensus " << util::percent(report.metrics.geo_consensus) << ")";
  if (report.metrics.confidence == ConfidenceTier::kInsufficient) {
    os << " — too little evidence; treat scores as unranked";
  }
  os << "\n\n";

  // Rows: union of each ranking's head.
  std::vector<bgp::Asn> actors;
  auto collect = [&](const rank::Ranking& r) {
    for (const auto& e : r.top(options.rows_per_metric)) {
      if (e.score > 0.0 &&
          std::find(actors.begin(), actors.end(), e.asn) == actors.end()) {
        actors.push_back(e.asn);
      }
    }
  };
  collect(report.metrics.cci);
  collect(report.metrics.ahi);
  collect(report.metrics.ccn);
  collect(report.metrics.ahn);
  if (options.include_baselines) {
    collect(report.ahc);
    collect(report.cti);
  }
  if (options.include_outbound) {
    collect(report.outbound.aho);
  }
  std::sort(actors.begin(), actors.end(), [&](bgp::Asn a, bgp::Asn b) {
    auto key = [&](bgp::Asn x) {
      return std::min(report.metrics.cci.rank_of(x).value_or(9999),
                      report.metrics.ahi.rank_of(x).value_or(9999));
    };
    if (key(a) != key(b)) return key(a) < key(b);
    return a < b;
  });

  std::vector<std::string> headers{"AS", "name", "CCI", "AHI", "CCN", "AHN"};
  if (options.include_baselines) {
    headers.push_back("AHC");
    headers.push_back("CTI");
  }
  if (options.include_outbound) headers.push_back("AHO");
  util::Table table{headers};
  for (std::size_t c = 2; c < headers.size(); ++c) {
    table.set_align(c, util::Align::kRight);
  }
  auto cell = [](const rank::Ranking& r, bgp::Asn asn) -> std::string {
    auto rank = r.rank_of(asn);
    if (!rank || r.score_of(asn) <= 0.0) return "-";
    return std::to_string(*rank) + " " + util::percent(r.score_of(asn));
  };
  for (bgp::Asn asn : actors) {
    std::vector<std::string> row{std::to_string(asn), name_of(asn),
                                 cell(report.metrics.cci, asn),
                                 cell(report.metrics.ahi, asn),
                                 cell(report.metrics.ccn, asn),
                                 cell(report.metrics.ahn, asn)};
    if (options.include_baselines) {
      row.push_back(cell(report.ahc, asn));
      row.push_back(cell(report.cti, asn));
    }
    if (options.include_outbound) row.push_back(cell(report.outbound.aho, asn));
    table.add_row(std::move(row));
  }
  os << table.render();

  const SovereigntySummary& s = report.sovereignty;
  os << "\nsovereignty: foreign share of top-" << options.top_k
     << " importance — international "
     << util::percent(s.international_foreign_share()) << ", national "
     << util::percent(s.national_foreign_share()) << "\n";
  os << "concentration (AHI HHI " << std::to_string(s.ahi.hhi).substr(0, 4)
     << "): " << s.ahi.half_mass_count
     << " AS(es) hold half the top-" << options.top_k << " hegemony mass\n";
  return os.str();
}

}  // namespace georank::core
