// Scale benchmark behind BENCH_scale.json: grows an internet-preset
// world (`gen/internet.hpp`) at --scale X, pushes it through sanitize ->
// ShardedPathStore -> all_countries(), and reports per-stage wall time,
// store-build throughput (paths/sec) and peak RSS (VmHWM). Run one
// process per scale — VmHWM is a high-water mark, so chaining scales in
// one process would attribute the largest world's peak to every row.
//
//   bench_scale --scale 10 [--seed S] [--json]
//   bench_scale --smoke
//
// --smoke (registered in ctest) skips the timed runs and asserts the
// store's correctness contract instead: the sharded census is
// bit-identical to the span-based ViewBuilder oracle's (a linear filter
// and copy that shares no code with the store), and the sharded build is
// bit-identical across worker counts.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <bit>
#include <string>
#include <vector>

#include "core/country_rankings.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_path_store.hpp"
#include "gen/internet.hpp"
#include "sanitize/path_sanitizer.hpp"

namespace {

using namespace georank;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set (VmHWM) of this process, in kB; 0 if unreadable.
std::size_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

sanitize::SanitizerOptions sanitizer_options(const gen::World& world) {
  sanitize::SanitizerOptions options;
  options.clique = world.clique;
  options.route_server_asns = world.route_servers;
  return options;
}

int run_scale(double scale, std::uint64_t seed, bool json) {
  gen::InternetSpec spec = gen::internet_spec(scale, seed);
  std::fprintf(stderr, "scale %g: %zu ASes, %zu prefix target, %zu VPs\n",
               scale, spec.as_count(), spec.prefix_target(), spec.vp_count());

  auto t0 = Clock::now();
  gen::InternetScaleGenerator generator{spec};
  gen::World world = generator.generate();
  const double generate_s = seconds_since(t0);

  t0 = Clock::now();
  bgp::RibCollection ribs = generator.synthesize_ribs(world);
  const double synth_s = seconds_since(t0);
  const std::size_t entries = ribs.total_entries();
  std::fprintf(stderr, "  %zu RIB entries (gen %.2fs, synth %.2fs)\n", entries,
               generate_s, synth_s);

  t0 = Clock::now();
  sanitize::PathSanitizer sanitizer{world.geo_db, world.vps,
                                    world.asn_registry,
                                    sanitizer_options(world)};
  sanitize::SanitizeResult sanitized = sanitizer.run(ribs);
  const double sanitize_s = seconds_since(t0);

  t0 = Clock::now();
  core::ShardedPathStore store{
      std::span<const sanitize::SanitizedPath>{sanitized.paths}};
  const double build_s = seconds_since(t0);
  const double paths_per_s =
      build_s > 0 ? static_cast<double>(store.size()) / build_s : 0.0;
  std::fprintf(stderr,
               "  %zu accepted paths, %zu shards (sanitize %.2fs, "
               "store build %.2fs = %.0f paths/s)\n",
               store.size(), store.shards().size(), sanitize_s, build_s,
               paths_per_s);

  core::PipelineConfig config;
  config.sanitizer = sanitizer_options(world);
  core::Pipeline pipeline{world.geo_db, world.vps, world.asn_registry,
                          world.graph, config};
  pipeline.load(ribs);
  t0 = Clock::now();
  std::vector<core::CountryMetrics> census = pipeline.all_countries();
  const double census_s = seconds_since(t0);

  const double peak_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
  std::fprintf(stderr, "  census: %zu countries in %.2fs, peak RSS %.1f MB\n",
               census.size(), census_s, peak_mb);

  if (json) {
    std::printf(
        "{\"scale\": %g, \"ases\": %zu, \"rib_entries\": %zu, "
        "\"accepted_paths\": %zu, \"countries\": %zu, "
        "\"generate_seconds\": %.3f, \"rib_synthesis_seconds\": %.3f, "
        "\"sanitize_seconds\": %.3f, \"store_build_seconds\": %.3f, "
        "\"store_paths_per_second\": %.0f, \"census_seconds\": %.3f, "
        "\"peak_rss_mb\": %.1f}\n",
        scale, spec.as_count(), entries, store.size(), census.size(),
        generate_s, synth_s, sanitize_s, build_s, paths_per_s, census_s,
        peak_mb);
  }
  return 0;
}

/// Bitwise ranking equality: same ASNs in the same order with the same
/// float bits (accumulation-order identity, not approximate equality).
bool same_ranking(const rank::Ranking& a, const rank::Ranking& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.entries()[i].asn != b.entries()[i].asn ||
        std::bit_cast<std::uint64_t>(a.entries()[i].score) !=
            std::bit_cast<std::uint64_t>(b.entries()[i].score)) {
      return false;
    }
  }
  return true;
}

int run_smoke() {
  gen::InternetSpec spec = gen::internet_spec(0.25, 3);
  gen::InternetScaleGenerator generator{spec};
  gen::World world = generator.generate();
  bgp::RibCollection ribs = generator.synthesize_ribs(world);
  sanitize::PathSanitizer sanitizer{world.geo_db, world.vps,
                                    world.asn_registry,
                                    sanitizer_options(world)};
  sanitize::SanitizeResult sanitized = sanitizer.run(ribs);
  std::span<const sanitize::SanitizedPath> paths{sanitized.paths};

  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "[ ok ]" : "[FAIL]", what);
    if (!ok) ++failures;
  };

  core::ShardedPathStore sharded{paths};
  const std::vector<geo::CountryCode> oracle_countries =
      core::ViewBuilder::countries(paths);
  std::printf("       %zu paths across %zu shards\n", sharded.size(),
              sharded.shards().size());
  check(sharded.size() == paths.size() && !sharded.shards().empty(),
        "sharded store covers every accepted path");
  check(sharded.countries() == oracle_countries,
        "census domain matches the span oracle");

  core::CountryRankings rankings{world.graph};
  bool census_identical = true;
  for (geo::CountryCode cc : oracle_countries) {
    core::CountryMetrics a = rankings.compute(paths, cc);
    core::CountryMetrics b = rankings.compute(sharded, cc);
    if (!same_ranking(a.cci, b.cci) || !same_ranking(a.ccn, b.ccn) ||
        !same_ranking(a.ahi, b.ahi) || !same_ranking(a.ahn, b.ahn)) {
      census_identical = false;
    }
    core::OutboundMetrics oa = rankings.compute_outbound(paths, cc);
    core::OutboundMetrics ob = rankings.compute_outbound(sharded, cc);
    if (!same_ranking(oa.cco, ob.cco) || !same_ranking(oa.aho, ob.aho)) {
      census_identical = false;
    }
  }
  check(census_identical,
        "sharded census is bit-identical to the span-oracle census");

  core::ShardedPathStore one{paths, 1};
  core::ShardedPathStore sixteen{paths, 16};
  bool builds_identical = one.shards().size() == sixteen.shards().size();
  for (geo::CountryCode cc : one.countries()) {
    if (one.shard_digest(cc) != sixteen.shard_digest(cc)) {
      builds_identical = false;
    }
  }
  check(builds_identical, "shard digests identical across worker counts");

  std::printf(failures == 0 ? "smoke: PASS\n" : "smoke: FAIL (%d)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::uint64_t seed = 0xA5;
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--smoke | --scale X [--seed S] "
                   "[--json]]\n");
      return 2;
    }
  }
  if (smoke) return run_smoke();
  if (scale <= 0) {
    std::fprintf(stderr, "bad --scale: expected a positive number\n");
    return 2;
  }
  return run_scale(scale, seed, json);
}
