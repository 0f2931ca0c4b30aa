#include "scenario/report.hpp"

#include <algorithm>
#include <cstdio>

#include "core/timeline.hpp"
#include "util/table.hpp"

namespace georank::scenario {

namespace {

constexpr core::TimelineMetric kMetrics[] = {
    core::TimelineMetric::kCci, core::TimelineMetric::kCcn,
    core::TimelineMetric::kAhi, core::TimelineMetric::kAhn};

[[nodiscard]] std::string_view metric_label(core::TimelineMetric metric) {
  switch (metric) {
    case core::TimelineMetric::kCci: return "cci";
    case core::TimelineMetric::kCcn: return "ccn";
    case core::TimelineMetric::kAhi: return "ahi";
    case core::TimelineMetric::kAhn: return "ahn";
  }
  return "?";
}

[[nodiscard]] bool delta_moved(const core::RankDelta& delta) {
  return std::any_of(delta.shifts.begin(), delta.shifts.end(),
                     [](const core::RankShift& s) {
                       return s.entered() || s.left() || s.rank_change() != 0 ||
                              s.before_score != s.after_score;
                     });
}

[[nodiscard]] std::string format_score(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

[[nodiscard]] std::string format_rank(const std::optional<std::size_t>& rank) {
  return rank ? std::to_string(*rank) : "-";
}

}  // namespace

const core::RankDelta& CountryShift::delta(core::TimelineMetric metric) const {
  switch (metric) {
    case core::TimelineMetric::kCci: return cci;
    case core::TimelineMetric::kCcn: return ccn;
    case core::TimelineMetric::kAhi: return ahi;
    case core::TimelineMetric::kAhn: return ahn;
  }
  return cci;
}

Report build_report(const Scenario& scenario, const ApplyStats& apply_stats,
                    const MemoStats& memo,
                    const std::vector<core::CountryMetrics>& baseline,
                    const std::vector<core::CountryMetrics>& counterfactual,
                    std::size_t top_k) {
  Report report;
  report.scenario = scenario;
  report.scenario_hash = content_hash(scenario);
  report.apply = apply_stats;
  report.memo = memo;
  report.top_k = top_k;
  report.countries_total = baseline.size();

  // Both censuses are sorted by country code: a classic merge walk.
  static const rank::Ranking kEmptyRanking;
  std::size_t i = 0, j = 0;
  while (i < baseline.size() || j < counterfactual.size()) {
    const core::CountryMetrics* before =
        i < baseline.size() ? &baseline[i] : nullptr;
    const core::CountryMetrics* after =
        j < counterfactual.size() ? &counterfactual[j] : nullptr;
    if (before && after) {
      if (before->country.raw() < after->country.raw()) {
        after = nullptr;
      } else if (after->country.raw() < before->country.raw()) {
        before = nullptr;
      }
    }

    CountryShift shift;
    shift.country = before ? before->country : after->country;
    shift.in_baseline = before != nullptr;
    shift.in_counterfactual = after != nullptr;
    if (before) shift.confidence_before = before->confidence;
    if (after) shift.confidence_after = after->confidence;
    for (core::TimelineMetric metric : kMetrics) {
      const rank::Ranking& lhs =
          before ? core::select_metric(*before, metric) : kEmptyRanking;
      const rank::Ranking& rhs =
          after ? core::select_metric(*after, metric) : kEmptyRanking;
      core::RankDelta delta = core::compare_rankings(lhs, rhs, top_k);
      switch (metric) {
        case core::TimelineMetric::kCci: shift.cci = std::move(delta); break;
        case core::TimelineMetric::kCcn: shift.ccn = std::move(delta); break;
        case core::TimelineMetric::kAhi: shift.ahi = std::move(delta); break;
        case core::TimelineMetric::kAhn: shift.ahn = std::move(delta); break;
      }
    }

    const bool changed =
        !shift.in_baseline || !shift.in_counterfactual ||
        shift.confidence_before != shift.confidence_after ||
        delta_moved(shift.cci) || delta_moved(shift.ccn) ||
        delta_moved(shift.ahi) || delta_moved(shift.ahn);
    if (changed) report.shifts.push_back(std::move(shift));

    if (before) ++i;
    if (after) ++j;
  }
  return report;
}

std::string render_text(const Report& report) {
  std::string out;
  out += "scenario: " +
         (report.scenario.name.empty() ? std::string{"(unnamed)"}
                                       : report.scenario.name) +
         "  seed=" + std::to_string(report.scenario.seed) +
         "  events=" + std::to_string(report.scenario.events.size()) + "\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "edits: -%zu/+%zu edges, %zu hijacked, %zu prefixes "
                "rerouted; entries kept=%zu rerouted=%zu withdrawn=%zu\n",
                report.apply.edges_removed, report.apply.edges_added,
                report.apply.prefixes_hijacked, report.apply.prefixes_rerouted,
                report.apply.entries_kept, report.apply.entries_rerouted,
                report.apply.entries_withdrawn);
  out += line;
  std::snprintf(line, sizeof line,
                "memo: shards kept=%zu rebuilt=%zu, rankings kept=%zu "
                "evicted=%zu\n",
                report.memo.shards_kept, report.memo.shards_rebuilt,
                report.memo.memos_kept, report.memo.memos_evicted);
  out += line;
  std::snprintf(line, sizeof line, "countries changed: %zu of %zu\n\n",
                report.shifts.size(), report.countries_total);
  out += line;

  for (const CountryShift& shift : report.shifts) {
    out += "== " + shift.country.to_string();
    if (!shift.in_counterfactual) {
      out += "  (VANISHED)";
    } else if (!shift.in_baseline) {
      out += "  (APPEARED)";
    }
    if (shift.confidence_before != shift.confidence_after) {
      out += "  confidence " +
             std::string{core::to_string(shift.confidence_before)} + " -> " +
             std::string{core::to_string(shift.confidence_after)};
    }
    out += "\n";
    for (core::TimelineMetric metric : kMetrics) {
      const core::RankDelta& delta = shift.delta(metric);
      if (!delta_moved(delta)) continue;
      util::Table table{{std::string{metric_label(metric)}, "before", "after",
                         "score before", "score after", "move"}};
      for (std::size_t c = 1; c < 6; ++c) table.set_align(c, util::Align::kRight);
      for (const core::RankShift& s : delta.shifts) {
        std::string move;
        if (s.entered()) {
          move = "in";
        } else if (s.left()) {
          move = "out";
        } else if (s.rank_change() != 0) {
          move = (s.rank_change() > 0 ? "+" : "") +
                 std::to_string(s.rank_change());
        }
        table.add_row({"AS" + std::to_string(s.asn), format_rank(s.before_rank),
                       format_rank(s.after_rank), format_score(s.before_score),
                       format_score(s.after_score), move});
      }
      out += table.render();
    }
    out += "\n";
  }
  return out;
}

std::string render_csv(const Report& report) {
  std::string out =
      "country,metric,asn,before_rank,after_rank,before_score,after_score,"
      "rank_change,entered,left\n";
  for (const CountryShift& shift : report.shifts) {
    for (core::TimelineMetric metric : kMetrics) {
      for (const core::RankShift& s : shift.delta(metric).shifts) {
        out += shift.country.to_string();
        out += ',';
        out += metric_label(metric);
        out += ',';
        out += std::to_string(s.asn);
        out += ',';
        out += s.before_rank ? std::to_string(*s.before_rank) : "";
        out += ',';
        out += s.after_rank ? std::to_string(*s.after_rank) : "";
        out += ',';
        out += format_score(s.before_score);
        out += ',';
        out += format_score(s.after_score);
        out += ',';
        out += std::to_string(s.rank_change());
        out += ',';
        out += s.entered() ? "1" : "0";
        out += ',';
        out += s.left() ? "1" : "0";
        out += '\n';
      }
    }
  }
  return out;
}

}  // namespace georank::scenario
