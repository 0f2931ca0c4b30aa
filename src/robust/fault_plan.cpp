#include "robust/fault_plan.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "core/ndcg.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_path_store.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace georank::robust {

std::string_view to_string(FaultDimension dimension) noexcept {
  switch (dimension) {
    case FaultDimension::kDropVps: return "drop-vps";
    case FaultDimension::kCorruptGeo: return "corrupt-geo";
    case FaultDimension::kDropPaths: return "drop-paths";
  }
  return "?";
}

namespace {

double clamp01(double f) { return f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f); }

/// round(fraction * n), clamped to [0, n].
std::size_t fraction_count(double fraction, std::size_t n) {
  double f = clamp01(fraction);
  auto count = static_cast<std::size_t>(f * static_cast<double>(n) + 0.5);
  return count > n ? n : count;
}

/// Mixes sweep coordinates into an independent per-trial seed.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t dimension,
                          std::uint64_t step, std::uint64_t trial) {
  std::uint64_t state = base + 0x9e3779b97f4a7c15ull * (dimension + 1) +
                        0xbf58476d1ce4e5b9ull * (step + 1) +
                        0x94d049bb133111ebull * (trial + 1);
  return util::splitmix64(state);
}

}  // namespace

PerturbationResult perturb(std::span<const sanitize::SanitizedPath> clean,
                           const PerturbationSpec& spec) {
  PerturbationResult out;

  // Distinct VPs / prefixes with their (unique, by construction) country,
  // in SORTED order so the candidate lists — and hence the sampled drops —
  // do not depend on the clean set's path order.
  std::map<bgp::VpId, geo::CountryCode> vp_country;
  std::map<bgp::Prefix, std::pair<geo::CountryCode, std::uint64_t>> prefix_info;
  for (const sanitize::SanitizedPath& p : clean) {
    vp_country.emplace(p.vp, p.vp_country);
    prefix_info.emplace(p.prefix, std::make_pair(p.prefix_country, p.weight));
  }

  std::unordered_set<bgp::VpId, bgp::VpIdHash> dropped_vps;
  if (spec.drop_vps > 0) {
    std::vector<bgp::VpId> candidates;
    for (const auto& [vp, country] : vp_country) {
      if (!spec.vp_target.valid() || country == spec.vp_target) {
        candidates.push_back(vp);
      }
    }
    std::size_t k = std::min(spec.drop_vps, candidates.size());
    util::Pcg32 rng{spec.seed, 1};
    for (std::size_t i : util::sample_indices(candidates.size(), k, rng)) {
      dropped_vps.insert(candidates[i]);
    }
  }

  std::unordered_set<bgp::Prefix, bgp::PrefixHash> corrupted;
  if (spec.corrupt_geo_fraction > 0.0) {
    std::vector<bgp::Prefix> candidates;
    for (const auto& [prefix, info] : prefix_info) {
      if (!spec.geo_target.valid() || info.first == spec.geo_target) {
        candidates.push_back(prefix);
      }
    }
    std::size_t k = fraction_count(spec.corrupt_geo_fraction, candidates.size());
    util::Pcg32 rng{spec.seed, 2};
    for (std::size_t i : util::sample_indices(candidates.size(), k, rng)) {
      const bgp::Prefix& prefix = candidates[i];
      corrupted.insert(prefix);
      const auto& [country, weight] = prefix_info.at(prefix);
      out.corrupted_addresses[country] += weight;
    }
  }

  std::vector<bool> path_dropped(clean.size(), false);
  if (spec.drop_path_fraction > 0.0) {
    std::size_t k = fraction_count(spec.drop_path_fraction, clean.size());
    util::Pcg32 rng{spec.seed, 3};
    for (std::size_t i : util::sample_indices(clean.size(), k, rng)) {
      path_dropped[i] = true;
    }
  }

  out.paths.reserve(clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const sanitize::SanitizedPath& p = clean[i];
    if (dropped_vps.contains(p.vp)) continue;
    if (corrupted.contains(p.prefix)) continue;
    if (path_dropped[i]) {
      ++out.dropped_paths;
      continue;
    }
    out.paths.push_back(p);
  }

  out.dropped_vps.assign(dropped_vps.begin(), dropped_vps.end());
  std::sort(out.dropped_vps.begin(), out.dropped_vps.end());
  out.corrupted_prefixes.assign(corrupted.begin(), corrupted.end());
  std::sort(out.corrupted_prefixes.begin(), out.corrupted_prefixes.end());
  return out;
}

FaultPlan FaultPlan::defaults() {
  FaultPlan plan;
  plan.vp_drop_steps = {1, 2, 4};
  plan.geo_corrupt_steps = {0.05, 0.10};
  plan.path_drop_steps = {0.05, 0.10};
  return plan;
}

double RobustnessCurve::worst() const noexcept {
  double w = 1.0;
  for (const RobustnessPoint& p : points) w = std::min(w, p.worst);
  return w;
}

RobustnessReport RobustnessHarness::run(
    const FaultPlan& plan, std::span<const geo::CountryCode> countries) const {
  if (!pipeline_->loaded()) {
    throw std::logic_error{"RobustnessHarness::run(): no RIBs loaded"};
  }
  std::vector<geo::CountryCode> domain(countries.begin(), countries.end());
  if (domain.empty()) domain = pipeline_->store().countries();

  // Clean baselines (memoized inside the pipeline).
  std::vector<core::CountryMetrics> baseline;
  baseline.reserve(domain.size());
  for (geo::CountryCode cc : domain) baseline.push_back(pipeline_->country(cc));

  struct Job {
    FaultDimension dimension;
    double severity = 0.0;
    std::size_t dim_index = 0;
    std::size_t step_index = 0;
  };
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < plan.vp_drop_steps.size(); ++s) {
    jobs.push_back({FaultDimension::kDropVps,
                    static_cast<double>(plan.vp_drop_steps[s]), 0, s});
  }
  for (std::size_t s = 0; s < plan.geo_corrupt_steps.size(); ++s) {
    jobs.push_back({FaultDimension::kCorruptGeo, plan.geo_corrupt_steps[s], 1, s});
  }
  for (std::size_t s = 0; s < plan.path_drop_steps.size(); ++s) {
    jobs.push_back({FaultDimension::kDropPaths, plan.path_drop_steps[s], 2, s});
  }

  const std::size_t trials = std::max<std::size_t>(1, plan.trials);
  std::span<const sanitize::SanitizedPath> clean = pipeline_->sanitized().paths;
  const core::CountryRankings& rankings = pipeline_->rankings();

  // One slot per (job, country); jobs run in parallel, each a pure
  // function of (clean, plan.seed, coordinates) — deterministic for any
  // schedule, hence any thread count.
  std::vector<std::vector<RobustnessPoint>> slots(jobs.size());
  util::parallel_for(jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    std::vector<std::array<double, 4>> sums(domain.size(), {0, 0, 0, 0});
    std::vector<double> worst(domain.size(), 1.0);
    for (std::size_t t = 0; t < trials; ++t) {
      PerturbationSpec spec;
      spec.seed = derive_seed(plan.seed, job.dim_index, job.step_index, t);
      switch (job.dimension) {
        case FaultDimension::kDropVps:
          spec.drop_vps = static_cast<std::size_t>(job.severity);
          spec.vp_target = plan.vp_target;
          break;
        case FaultDimension::kCorruptGeo:
          spec.corrupt_geo_fraction = job.severity;
          break;
        case FaultDimension::kDropPaths:
          spec.drop_path_fraction = job.severity;
          break;
      }
      PerturbationResult perturbed = perturb(clean, spec);
      // One build thread: this job already runs on a parallel_for worker.
      const core::ShardedPathStore store{perturbed.paths, 1};
      for (std::size_t c = 0; c < domain.size(); ++c) {
        core::CountryMetrics m = rankings.compute(store, domain[c]);
        std::array<double, 4> scores{
            core::ndcg(m.cci, baseline[c].cci, plan.top_k),
            core::ndcg(m.ccn, baseline[c].ccn, plan.top_k),
            core::ndcg(m.ahi, baseline[c].ahi, plan.top_k),
            core::ndcg(m.ahn, baseline[c].ahn, plan.top_k)};
        for (std::size_t i = 0; i < 4; ++i) {
          sums[c][i] += scores[i];
          worst[c] = std::min(worst[c], scores[i]);
        }
      }
    }
    std::vector<RobustnessPoint> points(domain.size());
    for (std::size_t c = 0; c < domain.size(); ++c) {
      RobustnessPoint& p = points[c];
      p.dimension = job.dimension;
      p.severity = job.severity;
      p.trials = trials;
      auto n = static_cast<double>(trials);
      p.cci = sums[c][0] / n;
      p.ccn = sums[c][1] / n;
      p.ahi = sums[c][2] / n;
      p.ahn = sums[c][3] / n;
      p.worst = worst[c];
    }
    slots[j] = std::move(points);
  });

  RobustnessReport report;
  report.plan = plan;
  report.curves.resize(domain.size());
  for (std::size_t c = 0; c < domain.size(); ++c) {
    report.curves[c].country = domain[c];
    report.curves[c].points.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      report.curves[c].points.push_back(slots[j][c]);
    }
  }
  std::sort(report.curves.begin(), report.curves.end(),
            [](const RobustnessCurve& a, const RobustnessCurve& b) {
              return a.country < b.country;
            });
  return report;
}

}  // namespace georank::robust
