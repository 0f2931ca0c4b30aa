// georank — command-line front end to the library.
//
// Subcommands:
//
//   generate   synthesize a world and write its data-set files:
//                ribs.txt (bgpdump -m style), as-rel.txt (CAIDA format),
//                geo.csv, collectors.csv, vps.csv, as-info.csv
//   sanitize   run the Table-1 filtering over a data-set directory
//   rank       compute CCI/AHI/CCN/AHN (+AHC/CTI) for one country
//   stability  VP-downsampling NDCG analysis for one country's view
//   health     per-country data-health audit (VPs, geo consensus, tiers)
//   robustness fault-injection sweep: NDCG drift under dropped VPs,
//                corrupted geo blocks and lost paths
//   snapshot   precompute all-country rankings + health into a binary
//                snapshot file (FORMATS.md "Ranking snapshot")
//   serve      boot the HTTP query service over one or more snapshots
//   live       replay an update archive through the incremental
//                pipeline (journaled + checkpointed with --journal-dir)
//   journal    read-only GRJRNL01 journal inspection (CI's recovery
//                tier polls it to time its kill -9)
//
// The generate output is exactly what the other subcommands consume, so
//   georank generate --out data/ && georank rank --dir data/ --country AU
// is a complete offline reproduction loop. Real RouteViews/RIS exports
// in the same formats slot straight in.
//
// Exit codes (scriptable degraded-data handling):
//   0  success
//   1  operational error (missing file, bad argument value)
//   2  usage error
//   3  parse failure (strict-mode parse error, or no parsable RIB data)
//   4  empty result (query ran but produced nothing)
//   5  --fail-on-drop-rate threshold exceeded
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/mrt_stream.hpp"
#include "bgp/update_stream.hpp"
#include "core/pipeline.hpp"
#include "core/rank_delta.hpp"
#include "core/report.hpp"
#include "core/stability.hpp"
#include "gen/internet.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "infer/relationships.hpp"
#include "io/as_info_csv.hpp"
#include "io/as_rel.hpp"
#include "io/geo_csv.hpp"
#include "io/rankings_csv.hpp"
#include "io/snapshot_codec.hpp"
#include "live/checkpoint.hpp"
#include "live/health_monitor.hpp"
#include "live/journal.hpp"
#include "live/update_pipeline.hpp"
#include "robust/data_health.hpp"
#include "robust/fault_plan.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/scenario.hpp"
#include "serve/http_server.hpp"
#include "serve/ranking_service.hpp"
#include "serve/signal_pipe.hpp"
#include "serve/snapshot.hpp"
#include "util/options.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace fs = std::filesystem;
using namespace georank;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParseFailure = 3;
constexpr int kExitEmptyResult = 4;
constexpr int kExitDropRate = 5;

// The --key=value parser lives in util/options.hpp so the serve and
// snapshot machinery (and future binaries) share one grammar.
using Args = util::Options;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  georank generate   --out DIR [--epoch 2021|2023] [--seed N]"
               " [--days N] [--mini]\n"
               "                     [--preset internet --scale X]\n"
               "  georank sanitize   --dir DIR [--samples N] [--strict]"
               " [--ingest-stats]\n"
               "  georank rank       --dir DIR --country CC [--out FILE]"
               " [--infer] [--strict]\n"
               "  georank stability  --dir DIR --country CC"
               " [--view national|international|outbound] [--threshold X]\n"
               "  georank compare    --before FILE --after FILE [--top N]"
               " [--metric CCI|AHI|CCN|AHN]\n"
               "  georank infer      --dir DIR --out FILE [--validate]\n"
               "  georank health     --dir DIR [--csv] [--out FILE]"
               " [--min-vps N] [--min-geo-consensus X]\n"
               "  georank robustness --dir DIR [--country CC[,CC...]]"
               " [--trials N] [--seed N] [--top N]\n"
               "                     [--vp-steps a,b,..] [--geo-steps x,y,..]"
               " [--path-steps x,y,..] [--vp-target CC] [--csv] [--out FILE]\n"
               "  georank snapshot   --dir DIR --out FILE [--id N]"
               " [--label STR] [--infer] [--strict] [--clique FILE]\n"
               "  georank serve      --snapshot FILE[,FILE...] | --dir DIR"
               " [--port N] [--bind ADDR]\n"
               "                     [--threads N] [--cache N] [--history N]\n"
               "  georank live       --dir DIR [--updates FILE] [--batch N]"
               " [--window N] [--reorder SECS]\n"
               "                     [--out FILE] [--id N] [--id-base N]"
               " [--created N] [--label STR]\n"
               "                     [--strict] [--ingest-stats] [--port N]"
               " [--bind ADDR] [--threads N]\n"
               "                     [--journal-dir DIR] [--checkpoint-every N]"
               " [--recover] [--fsync never|each]\n"
               "                     [--overflow drain|shed] [--follow]"
               " [--stale-after SECS] [--degraded-after SECS]\n"
               "                     [--clique FILE]\n"
               "  georank journal    --dir DIR [--stat]\n"
               "  georank whatif     --dir DIR --scenario FILE [--out FILE]"
               " [--csv FILE] [--top N]\n"
               "                     [--id N] [--created N] [--label STR]"
               " [--strict]\n"
               "common: --key=value and --key value both work;"
               " --fail-on-drop-rate=PCT exits %d when the sanitize or\n"
               "ingest layer drops more than PCT%% of its input"
               " (sanitize/rank/health/robustness).\n",
               kExitDropRate);
  return kExitUsage;
}

/// --fail-on-drop-rate=PCT: non-zero exit when the ingest or sanitize
/// layer dropped more than PCT percent of its input. Returns kExitOk, or
/// kExitDropRate / kExitError (unparsable threshold).
int check_drop_rate(const Args& args, const bgp::MrtParseStats& ingest,
                    const sanitize::SanitizeStats& sanitize_stats) {
  if (!args.has("fail-on-drop-rate")) return kExitOk;
  double pct = 0.0;
  try {
    pct = std::stod(args.get("fail-on-drop-rate"));
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad --fail-on-drop-rate '%s'\n",
                 args.get("fail-on-drop-rate").c_str());
    return kExitError;
  }
  double limit = pct / 100.0;
  double ingest_rate =
      ingest.lines == 0 ? 0.0
                        : static_cast<double>(ingest.malformed) /
                              static_cast<double>(ingest.lines);
  double sanitize_rate = sanitize_stats.drop_rate();
  if (ingest_rate > limit || sanitize_rate > limit) {
    std::fprintf(stderr,
                 "drop rate above %.2f%%: ingest %.2f%%, sanitize %.2f%%\n",
                 pct, ingest_rate * 100.0, sanitize_rate * 100.0);
    return kExitDropRate;
  }
  return kExitOk;
}

template <typename Writer>
bool write_file(const fs::path& path, Writer&& writer) {
  std::ofstream os{path};
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  writer(os);
  return true;
}

// ------------------------------------------------------------- generate

/// Writes the data-set files every other subcommand consumes, plus
/// clique.txt (the generator's tier-1 clique, which `snapshot` and
/// `live` pin with --clique instead of inferring it).
bool write_dataset(const fs::path& dir, const gen::World& world,
                   const bgp::RibCollection& ribs) {
  io::AsInfoMap info;
  for (const auto& [asn, rec] : world.as_info) {
    if (rec.registered.valid()) {
      info[asn] = io::AsInfoRecord{rec.registered, rec.name};
    }
  }

  return write_file(dir / "ribs.txt",
                    [&](std::ostream& os) {
                      bgp::MrtTextWriter writer{os};
                      writer.write_collection(ribs);
                    }) &&
         write_file(dir / "as-rel.txt",
                    [&](std::ostream& os) { io::write_as_rel(os, world.graph); }) &&
         write_file(dir / "geo.csv",
                    [&](std::ostream& os) { io::write_geo_csv(os, world.geo_db); }) &&
         write_file(dir / "collectors.csv",
                    [&](std::ostream& os) { io::write_collectors_csv(os, world.vps); }) &&
         write_file(dir / "vps.csv",
                    [&](std::ostream& os) { io::write_vps_csv(os, world.vps); }) &&
         write_file(dir / "as-info.csv",
                    [&](std::ostream& os) { io::write_as_info_csv(os, info); }) &&
         write_file(dir / "route-servers.txt",
                    [&](std::ostream& os) {
                      for (bgp::Asn rs : world.route_servers) os << rs << '\n';
                    }) &&
         write_file(dir / "clique.txt",
                    [&](std::ostream& os) {
                      for (bgp::Asn asn : world.clique) os << asn << '\n';
                    }) &&
         write_file(dir / "updates.txt", [&](std::ostream& os) {
           // The same data as an incremental update archive (IHR-style
           // consumption); `rank --dir` falls back to it when ribs.txt is
           // absent.
           bgp::UpdateTextWriter writer{os};
           writer.write_all(bgp::collection_to_updates(ribs));
         });
}

int cmd_generate(const Args& args) {
  if (!args.has("out")) return usage();
  fs::path dir{args.get("out")};
  std::error_code ec;
  fs::create_directories(dir, ec);

  if (args.get("preset", "") == "internet") {
    // Internet-scale preset: one `--scale` knob instead of a scripted
    // WorldSpec; see gen/internet.hpp for the topology model.
    double scale = 1.0;
    if (args.has("scale")) {
      try {
        scale = std::stod(args.get("scale"));
      } catch (const std::exception&) {
        scale = 0.0;
      }
      if (scale <= 0.0) {
        std::fprintf(stderr, "bad --scale '%s': expected a positive number\n",
                     args.get("scale").c_str());
        return kExitError;
      }
    }
    gen::InternetSpec spec = gen::internet_spec(scale, args.u64_or("seed", 0xA5));
    spec.rib_days = args.int_or("days", spec.rib_days);
    gen::InternetScaleGenerator generator{spec};
    std::printf("generating internet-scale world (scale %g, seed %llu, "
                "%zu countries)...\n",
                scale, static_cast<unsigned long long>(spec.seed),
                spec.country_count());
    gen::World world = generator.generate();
    bgp::RibCollection ribs = generator.synthesize_ribs(world);
    std::printf("  %zu ASes, %zu originations, %zu VPs, %zu RIB entries\n",
                world.graph.size(), world.originations.size(),
                world.vps.all_vps().size(), ribs.total_entries());
    if (!write_dataset(dir, world, ribs)) return kExitError;
    std::printf("wrote data set to %s\n", dir.string().c_str());
    return kExitOk;
  }

  gen::Epoch epoch = args.get("epoch", "2021") == "2023"
                         ? gen::Epoch::kMarch2023
                         : gen::Epoch::kApril2021;
  std::uint64_t seed = args.u64_or("seed", 20210401);
  int days = args.int_or("days", 5);

  gen::WorldSpec spec = args.has("mini") ? gen::mini_world_spec(seed)
                                         : gen::default_world_spec(epoch, seed);
  std::printf("generating world (seed %llu, %zu countries)...\n",
              static_cast<unsigned long long>(seed), spec.countries.size());
  gen::World world = gen::InternetGenerator{spec}.generate();
  bgp::RibCollection ribs = gen::RibGenerator{world, spec.noise}.generate(days);
  std::printf("  %zu ASes, %zu originations, %zu VPs, %zu RIB entries\n",
              world.graph.size(), world.originations.size(),
              world.vps.all_vps().size(), ribs.total_entries());

  if (!write_dataset(dir, world, ribs)) return kExitError;
  std::printf("wrote data set to %s\n", dir.string().c_str());
  return kExitOk;
}

// ----------------------------------------------------------- data loading

struct DataSet {
  geo::GeoDatabase geo_db;
  geo::VpGeolocator vps;
  sanitize::AsnRegistry asn_registry;
  topo::AsGraph relationships;
  io::AsInfoMap as_info;
  rank::AsRegistry registry;
  std::vector<bgp::Asn> route_servers;
  bgp::RibCollection ribs;
  bgp::MrtParseStats ingest_stats;
  /// Set when the RIBs came from replaying updates.txt (spurious
  /// withdrawals, ordering/day drops, quiet days).
  std::optional<bgp::ReplayStats> replay_stats;
};

/// Loads a data-set directory. On failure returns nullopt and, when
/// `fail_code` is given, distinguishes kExitParseFailure (RIB/update
/// input present but nothing parsed from it) from kExitError (missing
/// files). Strict-mode parse errors throw bgp::MrtParseError (or
/// bgp::UpdateReplayError for stream-contract violations) instead,
/// mapped to kExitParseFailure in main(). `skip_ribs` loads only the
/// topology/geo side files (the live subcommand streams its own
/// updates).
/// One ASN per line; lines that are not an ASN are skipped.
std::vector<bgp::Asn> read_asn_lines(std::istream& is) {
  std::vector<bgp::Asn> asns;
  std::string line;
  while (std::getline(is, line)) {
    if (auto asn = util::parse_int<bgp::Asn>(util::trim(line))) {
      asns.push_back(*asn);
    }
  }
  return asns;
}

std::optional<DataSet> load_dataset(const fs::path& dir, bool infer_relationships,
                                    bool strict = false, int* fail_code = nullptr,
                                    std::size_t ingest_threads = 0,
                                    bool skip_ribs = false) {
  if (fail_code) *fail_code = kExitError;
  auto open = [&](const char* name) -> std::optional<std::ifstream> {
    std::ifstream is{dir / name};
    if (!is) {
      std::fprintf(stderr, "missing %s in %s\n", name, dir.string().c_str());
      return std::nullopt;
    }
    return is;
  };

  DataSet data;
  auto geo_is = open("geo.csv");
  auto collectors_is = open("collectors.csv");
  auto vps_is = open("vps.csv");
  auto info_is = open("as-info.csv");
  if (!geo_is || !collectors_is || !vps_is || !info_is) {
    return std::nullopt;
  }

  data.geo_db = io::read_geo_csv(*geo_is);
  data.vps = io::read_vp_geolocator(*collectors_is, *vps_is);
  data.as_info = io::read_as_info_csv(*info_is);
  data.registry = io::to_registry(data.as_info);

  // RIB snapshots directly (streamed in bounded memory through the
  // chunked parallel loader), or an update archive replayed into them.
  // --strict turns the first malformed line into a hard error.
  if (skip_ribs) {
    // Live streaming: the caller feeds updates itself.
  } else if (std::ifstream ribs_is{dir / "ribs.txt"}; ribs_is) {
    bgp::MrtStreamOptions options;
    options.mode = strict ? bgp::ParseMode::kStrict : bgp::ParseMode::kTolerant;
    options.threads = ingest_threads;  // 0 -> GEORANK_THREADS / hw default
    bgp::MrtStreamLoader loader{options};
    data.ribs = loader.load(ribs_is);
    data.ingest_stats = loader.stats();
    std::printf("loaded %zu RIB entries (%zu malformed lines skipped, "
                "%.1f MB/s)\n",
                data.ingest_stats.parsed, data.ingest_stats.malformed,
                data.ingest_stats.mbytes_per_second());
  } else if (std::ifstream updates_is{dir / "updates.txt"}; updates_is) {
    const bgp::ParseMode mode =
        strict ? bgp::ParseMode::kStrict : bgp::ParseMode::kTolerant;
    bgp::UpdateTextReader reader{mode};
    std::vector<bgp::UpdateMessage> updates = reader.read_all(updates_is);
    bgp::ReplayOptions replay_options;
    replay_options.mode = mode;  // --strict also enforces stream ordering
    bgp::ReplayStats replay_stats;
    data.ribs = bgp::replay_to_collection(updates, replay_options, &replay_stats);
    data.ingest_stats = reader.stats();
    data.replay_stats = replay_stats;
    std::printf("replayed %zu updates into %zu daily snapshots "
                "(%zu malformed lines, %zu out-of-order, %zu out-of-range "
                "skipped; %zu spurious withdrawals)\n",
                replay_stats.applied, data.ribs.days.size(),
                reader.stats().malformed, replay_stats.skipped_out_of_order,
                replay_stats.skipped_day_out_of_range,
                replay_stats.spurious_withdrawals);
  } else {
    std::fprintf(stderr, "missing ribs.txt / updates.txt in %s\n",
                 dir.string().c_str());
    return std::nullopt;
  }

  if (!skip_ribs && data.ribs.total_entries() == 0) {
    std::fprintf(stderr, "no parsable RIB data in %s (%zu lines, %zu malformed)\n",
                 dir.string().c_str(), data.ingest_stats.lines,
                 data.ingest_stats.malformed);
    if (fail_code) *fail_code = kExitParseFailure;
    return std::nullopt;
  }

  if (std::ifstream rs_is{dir / "route-servers.txt"}; rs_is) {
    data.route_servers = read_asn_lines(rs_is);
  }

  if (infer_relationships) {
    std::printf("inferring AS relationships from the paths...\n");
    infer::RelationshipInference inference;
    for (const auto& snap : data.ribs.days) {
      for (const auto& e : snap.entries) inference.add_path(e.path);
      break;  // one snapshot suffices
    }
    infer::InferenceResult result = inference.infer();
    std::printf("  %zu links labeled, clique of %zu\n", result.link_count,
                result.clique.size());
    data.relationships = std::move(result.graph);
  } else if (auto rel_is = open("as-rel.txt")) {
    io::AsRelParseStats stats;
    data.relationships = io::read_as_rel(*rel_is, &stats);
    std::printf("loaded %zu relationship links\n", stats.links);
  } else {
    return std::nullopt;
  }

  // Registry: everything mentioned anywhere is considered allocated; the
  // generator's bogus range is not. A real deployment would load IANA's
  // delegation files here instead.
  data.asn_registry.allocate_range(1, 1000000);
  data.asn_registry.finalize();
  return data;
}

/// --min-vps / --min-geo-consensus override the paper-default
/// DegradationPolicy for the confidence annotation.
core::DegradationPolicy degradation_from_args(const Args& args) {
  core::DegradationPolicy policy;
  policy.min_vps = args.size_or("min-vps", policy.min_vps);
  policy.min_geo_consensus =
      args.double_or("min-geo-consensus", policy.min_geo_consensus);
  return policy;
}

/// --clique FILE: the poisoning filter's tier-1 clique, one ASN per line
/// (`generate` writes clique.txt). Without it the sanitizer infers the
/// clique from the paths. Only an explicit clique lets the live
/// pipeline re-sanitize incrementally. Throws std::runtime_error when
/// the file cannot be read.
std::vector<bgp::Asn> clique_from_args(const Args& args) {
  if (!args.has("clique")) return {};
  std::ifstream is{args.get("clique")};
  if (!is) throw std::runtime_error{"cannot read --clique " + args.get("clique")};
  return read_asn_lines(is);
}

core::PipelineConfig pipeline_config(const DataSet& data,
                                    core::DegradationPolicy degradation = {}) {
  core::PipelineConfig config;
  config.sanitizer.route_server_asns = data.route_servers;
  config.degradation = degradation;
  return config;
}

core::Pipeline make_pipeline(const DataSet& data,
                             core::DegradationPolicy degradation = {}) {
  core::Pipeline pipeline{data.geo_db, data.vps, data.asn_registry,
                          data.relationships, pipeline_config(data, degradation)};
  pipeline.load(data.ribs);
  return pipeline;
}

// ------------------------------------------------------------- sanitize

void print_ingest_stats(const bgp::MrtParseStats& s,
                        const bgp::ReplayStats* replay = nullptr) {
  std::printf("\ningest diagnostics:\n");
  std::printf("  lines %zu  parsed %zu  malformed %zu  comments %zu\n",
              s.lines, s.parsed, s.malformed, s.skipped_comments);
  util::Table table{{"reason", "lines"}};
  table.set_align(1, util::Align::kRight);
  using bgp::ParseReason;
  for (ParseReason reason :
       {ParseReason::kBadFieldCount, ParseReason::kBadRecordType,
        ParseReason::kBadTimestamp, ParseReason::kBadIp, ParseReason::kBadAsn,
        ParseReason::kBadPrefix, ParseReason::kBadPath, ParseReason::kEmptyPath,
        ParseReason::kDayOutOfRange, ParseReason::kAsSet}) {
    std::size_t count = s.reason_count(reason);
    if (count == 0) continue;
    table.add_row({std::string(bgp::to_string(reason)), std::to_string(count)});
  }
  table.print(std::cout);
  if (s.elapsed_seconds > 0.0) {
    std::printf("  throughput: %.1f MB/s, %.0f lines/s\n",
                s.mbytes_per_second(), s.lines_per_second());
  }
  for (const auto& sample : s.samples) {
    std::printf("  line %zu (%s): %s\n", sample.line_number,
                std::string(bgp::to_string(sample.reason)).c_str(),
                sample.text.c_str());
  }
  if (replay != nullptr) {
    std::printf("replay diagnostics:\n");
    std::printf("  applied %zu  out-of-order %zu  day-out-of-range %zu\n",
                replay->applied, replay->skipped_out_of_order,
                replay->skipped_day_out_of_range);
    std::printf("  spurious withdrawals %zu  days %zu (%zu quiet)\n",
                replay->spurious_withdrawals, replay->days_emitted,
                replay->quiet_days);
  }
}

int cmd_sanitize(const Args& args) {
  if (!args.has("dir")) return usage();
  int fail_code = kExitError;
  auto data = load_dataset(args.get("dir"), args.has("infer"), args.has("strict"),
                           &fail_code,
                           args.thread_count_or("ingest-threads", 0));
  if (!data) return fail_code;

  // --samples N captures audit examples per rejection category.
  auto samples = args.size_or("samples", 0);
  core::PipelineConfig config;
  config.sanitizer.route_server_asns = data->route_servers;
  config.sanitizer.samples_per_category = samples;
  core::Pipeline pipeline{data->geo_db, data->vps, data->asn_registry,
                          data->relationships, config};
  pipeline.load(data->ribs);
  const auto& s = pipeline.sanitized().stats;
  auto pct = [&](std::size_t v) {
    return util::percent(static_cast<double>(v) / static_cast<double>(s.total), 2);
  };
  util::Table table{{"category", "paths", "%"}};
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.add_row({"unstable", std::to_string(s.unstable), pct(s.unstable)});
  table.add_row({"as-set", std::to_string(s.as_set), pct(s.as_set)});
  table.add_row({"unallocated", std::to_string(s.unallocated), pct(s.unallocated)});
  table.add_row({"loop", std::to_string(s.loop), pct(s.loop)});
  table.add_row({"poisoned", std::to_string(s.poisoned), pct(s.poisoned)});
  table.add_row({"VP no location", std::to_string(s.vp_no_location),
                 pct(s.vp_no_location)});
  table.add_row({"covered prefix", std::to_string(s.covered_prefix),
                 pct(s.covered_prefix)});
  table.add_row({"prefix no location", std::to_string(s.prefix_no_location),
                 pct(s.prefix_no_location)});
  table.add_rule();
  table.add_row({"accepted", std::to_string(s.accepted), pct(s.accepted)});
  table.add_row({"total", std::to_string(s.total), "100.00%"});
  table.print(std::cout);
  std::printf("distinct sanitized paths: %zu\n", pipeline.sanitized().paths.size());

  if (args.has("ingest-stats")) {
    print_ingest_stats(data->ingest_stats,
                       data->replay_stats ? &*data->replay_stats : nullptr);
  }

  if (!pipeline.sanitized().samples.empty()) {
    std::printf("\nrejected-entry samples:\n");
    for (const sanitize::RejectedSample& sample : pipeline.sanitized().samples) {
      std::printf("  [%s] day %d vp %s AS%u  %s  path: %s\n",
                  std::string(sanitize::to_string(sample.reason)).c_str(),
                  sample.day, bgp::format_ipv4(sample.entry.vp.ip).c_str(),
                  sample.entry.vp.asn, sample.entry.prefix.to_string().c_str(),
                  sample.entry.path.to_string().c_str());
    }
  }
  return check_drop_rate(args, data->ingest_stats, s);
}

// ----------------------------------------------------------------- rank

int cmd_rank(const Args& args) {
  if (!args.has("dir") || !args.has("country")) return usage();
  auto country = geo::CountryCode::parse(args.get("country"));
  if (!country) {
    std::fprintf(stderr, "bad country code '%s'\n", args.get("country").c_str());
    return kExitError;
  }
  int fail_code = kExitError;
  auto data = load_dataset(args.get("dir"), args.has("infer"), args.has("strict"),
                           &fail_code,
                           args.thread_count_or("ingest-threads", 0));
  if (!data) return fail_code;
  core::Pipeline pipeline = make_pipeline(*data, degradation_from_args(args));

  auto name_of = [&](bgp::Asn asn) -> std::string {
    auto it = data->as_info.find(asn);
    return it != data->as_info.end() ? it->second.name : std::string{};
  };

  core::CountryReport report =
      core::build_country_report(pipeline, data->registry, *country);
  if (report.empty()) {
    std::fprintf(stderr, "no paths toward %s in this data set\n",
                 country->to_string().c_str());
    return kExitEmptyResult;
  }
  std::printf("\n%s", core::render_country_report(report, name_of).c_str());

  if (args.has("out")) {
    if (!write_file(args.get("out"), [&](std::ostream& os) {
          io::write_country_metrics_csv(os, report.metrics, [&](bgp::Asn asn) {
            std::string n = name_of(asn);
            return n.empty() ? "AS" + std::to_string(asn) : n;
          });
        })) {
      return 1;
    }
    std::printf("wrote %s\n", args.get("out").c_str());
  }
  return check_drop_rate(args, data->ingest_stats, pipeline.sanitized().stats);
}

// ------------------------------------------------------------ stability

int cmd_stability(const Args& args) {
  if (!args.has("dir") || !args.has("country")) return usage();
  auto country = geo::CountryCode::parse(args.get("country"));
  if (!country) return usage();
  double threshold = args.double_or("threshold", 0.9);

  int fail_code = kExitError;
  auto data = load_dataset(args.get("dir"), args.has("infer"),
                           /*strict=*/false, &fail_code,
                           args.thread_count_or("ingest-threads", 0));
  if (!data) return fail_code;
  core::Pipeline pipeline = make_pipeline(*data);
  const auto& paths = pipeline.sanitized().paths;

  std::string view_name = args.get("view", "national");
  core::CountryView view;
  if (view_name == "national") {
    view = core::ViewBuilder::national(paths, *country);
  } else if (view_name == "international") {
    view = core::ViewBuilder::international(paths, *country);
  } else if (view_name == "outbound") {
    view = core::ViewBuilder::outbound(paths, *country);
  } else {
    return usage();
  }

  std::printf("%s view of %s: %zu VPs, %zu paths\n", view_name.c_str(),
              country->to_string().c_str(), view.vp_count(), view.size());
  core::StabilityAnalyzer analyzer{pipeline.rankings()};
  for (auto [label, kind] :
       {std::pair{"hegemony", core::MetricKind::kHegemony},
        std::pair{"customer cone", core::MetricKind::kCustomerCone}}) {
    auto curve = analyzer.analyze(view, kind);
    std::size_t need = core::StabilityAnalyzer::min_vps_for(curve, threshold);
    std::printf("%-14s NDCG>=%.2f needs %s VPs\n", label, threshold,
                need ? std::to_string(need).c_str() : "more");
  }
  return 0;
}

// -------------------------------------------------------------- compare

int cmd_compare(const Args& args) {
  if (!args.has("before") || !args.has("after")) return usage();
  auto top_k = args.size_or("top", 10);
  std::string metric = args.get("metric", "CCI");

  // Accepts either a plain ranking CSV (rank,asn,score) or the long-form
  // country-metrics CSV (country,metric,rank,asn,score) filtered by
  // --metric.
  auto load = [&](const std::string& path) -> std::optional<rank::Ranking> {
    std::ifstream is{path};
    if (!is) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return std::nullopt;
    }
    rank::Ranking plain = io::read_ranking_csv(is);
    if (!plain.empty()) return plain;
    std::ifstream again{path};
    rank::Ranking long_form = io::read_metric_from_country_csv(again, metric);
    if (long_form.empty()) {
      std::fprintf(stderr, "%s holds no parsable ranking (metric %s)\n",
                   path.c_str(), metric.c_str());
      return std::nullopt;
    }
    return long_form;
  };
  auto before = load(args.get("before"));
  auto after = load(args.get("after"));
  if (!before || !after) return 1;

  core::RankDelta delta = core::compare_rankings(*before, *after, top_k);
  util::Table table{{"AS", "before", "after", "shift", "score change"}};
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  table.set_align(3, util::Align::kRight);
  table.set_align(4, util::Align::kRight);
  for (const core::RankShift& s : delta.shifts) {
    std::string shift;
    if (s.entered()) shift = "new";
    else if (s.left()) shift = "out";
    else if (s.rank_change() > 0) shift = "+" + std::to_string(s.rank_change());
    else shift = std::to_string(s.rank_change());
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.4f", s.score_change());
    auto rank_cell = [](const std::optional<std::size_t>& r) {
      return r ? std::to_string(*r) : std::string("-");
    };
    table.add_row({std::to_string(s.asn), rank_cell(s.before_rank),
                   rank_cell(s.after_rank), shift, buf});
  }
  table.print(std::cout);
  std::printf("entries: %zu, exits: %zu, max movement: %ld, "
              "ordering agreement (Spearman): %.3f\n",
              delta.entries().size(), delta.exits().size(), delta.max_movement(),
              delta.agreement());
  return 0;
}

// ---------------------------------------------------------------- infer

int cmd_infer(const Args& args) {
  if (!args.has("dir") || !args.has("out")) return usage();
  fs::path dir{args.get("dir")};

  // Only the RIBs are needed; reuse the loader's RIB/update logic by
  // loading the full data set (cheap relative to inference itself).
  auto data = load_dataset(dir, /*infer_relationships=*/false);
  bool have_truth = data.has_value();
  bgp::RibCollection ribs;
  if (data) {
    ribs = std::move(data->ribs);
  } else {
    std::ifstream ribs_is{dir / "ribs.txt"};
    if (!ribs_is) return 1;
    ribs = bgp::MrtStreamLoader{}.load(ribs_is);
  }
  if (ribs.days.empty()) {
    std::fprintf(stderr, "no RIB data in %s\n", dir.string().c_str());
    return 1;
  }

  std::printf("inferring relationships from %zu paths...\n",
              ribs.days[0].entries.size());
  infer::RelationshipInference inference;
  for (const auto& e : ribs.days[0].entries) inference.add_path(e.path);
  infer::InferenceResult result = inference.infer();
  std::printf("labeled %zu links; clique of %zu:", result.link_count,
              result.clique.size());
  for (bgp::Asn asn : result.clique) std::printf(" %u", asn);
  std::printf("\n");

  if (args.has("validate") && have_truth) {
    infer::ValidationScore score =
        infer::validate_against(data->relationships, result.graph);
    std::printf("validation vs %s/as-rel.txt: accuracy %.1f%% "
                "(p2c %zu/%zu, p2p %zu/%zu over %zu shared links)\n",
                dir.string().c_str(), score.accuracy() * 100.0,
                score.correct_p2c, score.total_p2c, score.correct_p2p,
                score.total_p2p, score.shared_links);
  }

  if (!write_file(args.get("out"), [&](std::ostream& os) {
        io::write_as_rel(os, result.graph);
      })) {
    return 1;
  }
  std::printf("wrote %s\n", args.get("out").c_str());
  return 0;
}

// --------------------------------------------------------------- health

int cmd_health(const Args& args) {
  if (!args.has("dir")) return usage();
  int fail_code = kExitError;
  auto data = load_dataset(args.get("dir"), args.has("infer"), args.has("strict"),
                           &fail_code,
                           args.thread_count_or("ingest-threads", 0));
  if (!data) return fail_code;
  core::DegradationPolicy policy = degradation_from_args(args);
  core::Pipeline pipeline = make_pipeline(*data, policy);

  robust::HealthReport report = robust::compute_health(pipeline, policy);
  if (report.countries.empty()) {
    std::fprintf(stderr, "no geolocated evidence in this data set\n");
    return kExitEmptyResult;
  }

  auto tier = [](core::ConfidenceTier t) {
    return std::string(core::to_string(t));
  };
  auto write_csv = [&](std::ostream& os) {
    os << "country,national_vps,international_vps,accepted_prefixes,"
          "geolocated_addresses,no_consensus_prefixes,no_consensus_addresses,"
          "geo_consensus,national_tier,international_tier,geo_tier,overall\n";
    for (const core::CountryHealth& h : report.countries) {
      os << h.country.to_string() << ',' << h.national_vps << ','
         << h.international_vps << ',' << h.accepted_prefixes << ','
         << h.geolocated_addresses << ',' << h.no_consensus_prefixes << ','
         << h.no_consensus_addresses << ',' << h.geo_consensus() << ','
         << tier(h.national_tier) << ',' << tier(h.international_tier) << ','
         << tier(h.geo_tier) << ',' << tier(h.overall) << '\n';
    }
  };

  if (args.has("csv")) {
    write_csv(std::cout);
  } else {
    util::Table table{{"country", "natVP", "intlVP", "prefixes", "addresses",
                       "consensus", "nat", "intl", "geo", "overall"}};
    for (std::size_t c = 1; c <= 5; ++c) table.set_align(c, util::Align::kRight);
    for (const core::CountryHealth& h : report.countries) {
      table.add_row({h.country.to_string(), std::to_string(h.national_vps),
                     std::to_string(h.international_vps),
                     std::to_string(h.accepted_prefixes),
                     std::to_string(h.geolocated_addresses),
                     util::percent(h.geo_consensus()), tier(h.national_tier),
                     tier(h.international_tier), tier(h.geo_tier),
                     tier(h.overall)});
    }
    table.print(std::cout);
    std::printf("\n%zu countries: %zu high, %zu degraded, %zu insufficient\n",
                report.countries.size(),
                report.count(core::ConfidenceTier::kHigh),
                report.count(core::ConfidenceTier::kDegraded),
                report.count(core::ConfidenceTier::kInsufficient));
    std::printf("drop rates: ingest %s, sanitize %s\n",
                util::percent(report.ingest_drop_rate).c_str(),
                util::percent(report.sanitize_drop_rate).c_str());
  }

  if (args.has("out")) {
    if (!write_file(args.get("out"), write_csv)) return kExitError;
    std::printf("wrote %s\n", args.get("out").c_str());
  }
  return check_drop_rate(args, data->ingest_stats, pipeline.sanitized().stats);
}

// ----------------------------------------------------------- robustness

std::optional<std::vector<std::size_t>> parse_size_list(const std::string& s) {
  std::vector<std::size_t> out;
  for (std::string_view field : util::split(s, ',')) {
    auto v = util::parse_int<std::size_t>(util::trim(field));
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

std::optional<std::vector<double>> parse_double_list(const std::string& s) {
  std::vector<double> out;
  for (std::string_view field : util::split(s, ',')) {
    try {
      out.push_back(std::stod(std::string(util::trim(field))));
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return out;
}

int cmd_robustness(const Args& args) {
  if (!args.has("dir")) return usage();
  int fail_code = kExitError;
  auto data = load_dataset(args.get("dir"), args.has("infer"), args.has("strict"),
                           &fail_code,
                           args.thread_count_or("ingest-threads", 0));
  if (!data) return fail_code;
  core::Pipeline pipeline = make_pipeline(*data, degradation_from_args(args));

  robust::FaultPlan plan = robust::FaultPlan::defaults();
  plan.seed = args.u64_or("seed", 42);
  plan.trials = args.size_or("trials", 3);
  plan.top_k = args.size_or("top", 10);
  if (args.has("vp-steps")) {
    auto steps = parse_size_list(args.get("vp-steps"));
    if (!steps) return usage();
    plan.vp_drop_steps = std::move(*steps);
  }
  if (args.has("geo-steps")) {
    auto steps = parse_double_list(args.get("geo-steps"));
    if (!steps) return usage();
    plan.geo_corrupt_steps = std::move(*steps);
  }
  if (args.has("path-steps")) {
    auto steps = parse_double_list(args.get("path-steps"));
    if (!steps) return usage();
    plan.path_drop_steps = std::move(*steps);
  }
  if (args.has("vp-target")) {
    auto target = geo::CountryCode::parse(args.get("vp-target"));
    if (!target) return usage();
    plan.vp_target = *target;
  }

  std::vector<geo::CountryCode> countries;
  if (args.has("country")) {
    const std::string country_list = args.get("country");
    for (std::string_view field : util::split(country_list, ',')) {
      auto cc = geo::CountryCode::parse(std::string(util::trim(field)));
      if (!cc) {
        std::fprintf(stderr, "bad country code '%s'\n",
                     std::string(field).c_str());
        return kExitError;
      }
      countries.push_back(*cc);
    }
  }

  robust::RobustnessHarness harness{pipeline};
  robust::RobustnessReport report = harness.run(plan, countries);
  if (report.curves.empty()) {
    std::fprintf(stderr, "no countries to perturb in this data set\n");
    return kExitEmptyResult;
  }

  auto fmt = [](double v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return std::string(buf);
  };
  auto write_csv = [&](std::ostream& os) {
    os << "country,dimension,severity,trials,cci,ccn,ahi,ahn,worst\n";
    for (const robust::RobustnessCurve& curve : report.curves) {
      for (const robust::RobustnessPoint& p : curve.points) {
        os << curve.country.to_string() << ',' << robust::to_string(p.dimension)
           << ',' << p.severity << ',' << p.trials << ',' << fmt(p.cci) << ','
           << fmt(p.ccn) << ',' << fmt(p.ahi) << ',' << fmt(p.ahn) << ','
           << fmt(p.worst) << '\n';
      }
    }
  };

  if (args.has("csv")) {
    write_csv(std::cout);
  } else {
    util::Table table{{"country", "fault", "severity", "CCI", "CCN", "AHI",
                       "AHN", "worst"}};
    for (std::size_t c = 2; c <= 7; ++c) table.set_align(c, util::Align::kRight);
    for (const robust::RobustnessCurve& curve : report.curves) {
      for (const robust::RobustnessPoint& p : curve.points) {
        std::string severity = p.dimension == robust::FaultDimension::kDropVps
                                   ? std::to_string(static_cast<std::size_t>(p.severity))
                                   : util::percent(p.severity);
        table.add_row({curve.country.to_string(),
                       std::string(robust::to_string(p.dimension)), severity,
                       fmt(p.cci), fmt(p.ccn), fmt(p.ahi), fmt(p.ahn),
                       fmt(p.worst)});
      }
    }
    table.print(std::cout);
    auto most_fragile = std::min_element(
        report.curves.begin(), report.curves.end(),
        [](const robust::RobustnessCurve& a, const robust::RobustnessCurve& b) {
          return a.worst() < b.worst();
        });
    std::printf("\nmost fragile: %s (worst single-trial NDCG %.4f over %zu "
                "trials/step, seed %llu)\n",
                most_fragile->country.to_string().c_str(),
                most_fragile->worst(), plan.trials,
                static_cast<unsigned long long>(plan.seed));
  }

  if (args.has("out")) {
    if (!write_file(args.get("out"), write_csv)) return kExitError;
    std::printf("wrote %s\n", args.get("out").c_str());
  }
  return check_drop_rate(args, data->ingest_stats, pipeline.sanitized().stats);
}

// ------------------------------------------------------------- snapshot

/// Builds a serve::Snapshot from a data-set directory: the full batch
/// pipeline (all-country rankings + health report), frozen with a
/// caller-visible identity. The id defaults to the wall clock so
/// successive snapshots of a living feed order naturally (tools/ is
/// outside the GR002 determinism scope; pass --id for reproducibility).
std::optional<serve::Snapshot> build_snapshot(const Args& args, int* fail_code) {
  auto data = load_dataset(args.get("dir"), args.has("infer"), args.has("strict"),
                           fail_code,
                           args.thread_count_or("ingest-threads", 0));
  if (!data) return std::nullopt;
  core::PipelineConfig config = pipeline_config(*data, degradation_from_args(args));
  config.sanitizer.clique = clique_from_args(args);
  core::Pipeline pipeline{data->geo_db, data->vps, data->asn_registry,
                          data->relationships, config};
  pipeline.load(data->ribs);

  auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  serve::SnapshotMeta meta;
  meta.id = args.u64_or("id", now);
  // --created pins creation time for byte-reproducible snapshots (the
  // live-vs-batch CI tier compares GRSNAP01 files with cmp).
  meta.created_unix = args.u64_or("created", now);
  meta.label = args.get("label");
  serve::Snapshot snapshot = serve::Snapshot::build(pipeline, std::move(meta));
  if (snapshot.countries.empty()) {
    std::fprintf(stderr, "no geolocated evidence in this data set\n");
    if (fail_code) *fail_code = kExitEmptyResult;
    return std::nullopt;
  }
  return snapshot;
}

int cmd_snapshot(const Args& args) {
  if (!args.has("dir") || !args.has("out")) return usage();
  int fail_code = kExitError;
  auto snapshot = build_snapshot(args, &fail_code);
  if (!snapshot) return fail_code;
  std::ofstream os{args.get("out"), std::ios::binary};
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", args.get("out").c_str());
    return kExitError;
  }
  io::write_snapshot(os, *snapshot);
  if (!os.flush()) {
    std::fprintf(stderr, "short write to %s\n", args.get("out").c_str());
    return kExitError;
  }
  std::printf("wrote snapshot id %llu (%zu countries) to %s\n",
              static_cast<unsigned long long>(snapshot->meta.id),
              snapshot->countries.size(), args.get("out").c_str());
  return kExitOk;
}

// ----------------------------------------------------------------- live

/// The health monitor's view, reshaped for the service's /v1/health
/// "live" block and the georank_live_health_* metrics.
serve::LiveHealth live_health_of(const live::HealthMonitor& monitor,
                                 double now) {
  serve::LiveHealth health;
  health.valid = true;
  health.state = monitor.state();
  health.age_seconds = monitor.age(now);
  health.stale_after_seconds = monitor.options().staleness.stale_after_seconds;
  health.degraded_after_seconds =
      monitor.options().staleness.degraded_after_seconds;
  health.entered = monitor.counters().entered;
  health.reopen_failures = monitor.counters().reopen_failures;
  health.reopen_successes = monitor.counters().reopen_successes;
  health.last_backoff_seconds = monitor.last_backoff_seconds();
  return health;
}

/// Replays an update archive through the incremental live pipeline:
/// each flush re-sanitizes the rolling day window, reuses every shard
/// whose digest is unchanged, re-ranks only the changed countries and
/// republishes through the service's RCU swap. With --port the HTTP
/// front end serves the evolving snapshots while the replay runs; with
/// --out the final state is frozen to a GRSNAP01 file whose bytes match
/// a batch `georank snapshot` of the same archive (given the same
/// --id/--label/--created).
int cmd_live(const Args& args) {
  if (!args.has("dir")) return usage();
  const fs::path dir = args.get("dir");
  int fail_code = kExitError;
  auto data = load_dataset(dir, args.has("infer"), args.has("strict"),
                           &fail_code, 0, /*skip_ribs=*/true);
  if (!data) return fail_code;

  core::PipelineConfig config = pipeline_config(*data, degradation_from_args(args));
  config.sanitizer.clique = clique_from_args(args);
  core::Pipeline pipeline{data->geo_db, data->vps, data->asn_registry,
                          data->relationships, config};

  serve::RankingServiceOptions service_options;
  service_options.cache_capacity = args.size_or("cache", 256);
  service_options.history_limit = args.size_or("history", 8);
  serve::RankingService service{service_options};

  live::UpdatePipelineOptions live_options;
  live_options.flush_batch = args.size_or("batch", 4096);
  live_options.max_pending = args.size_or("max-pending", 65536);
  live_options.reorder_window = args.u64_or("reorder", 0);
  live_options.window_days = args.size_or("window", 0);
  live_options.mode = args.has("strict") ? bgp::ParseMode::kStrict
                                         : bgp::ParseMode::kTolerant;
  live_options.snapshot_id_base = args.u64_or("id-base", 1);
  live_options.label = args.get("label");
  const std::string overflow = args.get("overflow", "drain");
  if (overflow == "shed") {
    live_options.overflow = live::OverflowPolicy::kShedNewest;
  } else if (overflow != "drain") {
    std::fprintf(stderr, "bad --overflow '%s' (drain|shed)\n", overflow.c_str());
    return usage();
  }
  live::UpdatePipeline live{pipeline, service, live_options};

  // Durability wiring (--journal-dir): write-ahead journal, periodic
  // checkpoints, and --recover to resume an interrupted run. recover()
  // must run on the fresh pipeline BEFORE set_journal/set_checkpoint —
  // replayed records are already on disk and must not be re-journaled.
  std::optional<live::UpdateJournal> journal;
  if (args.has("journal-dir")) {
    const fs::path journal_dir = args.get("journal-dir");
    live::UpdateJournalOptions journal_options;
    journal_options.dir = journal_dir.string();
    journal_options.segment_bytes = args.u64_or("segment-bytes", 4u << 20);
    const std::string fsync = args.get("fsync", "never");
    if (fsync == "each") {
      journal_options.fsync = live::FsyncPolicy::kEachRecord;
    } else if (fsync != "never") {
      std::fprintf(stderr, "bad --fsync '%s' (never|each)\n", fsync.c_str());
      return usage();
    }
    journal.emplace(journal_options);
    const std::string checkpoint_path =
        (journal_dir / "checkpoint.grckpt").string();
    if (args.has("recover")) {
      const live::RecoveryResult recovery =
          live::recover(live, *journal, checkpoint_path);
      std::printf(
          "recovered: checkpoint %s, %llu records replayed from seq %llu, "
          "next seq %llu\n",
          recovery.checkpoint_discarded
              ? "discarded (corrupt)"
              : recovery.checkpoint_loaded ? "loaded" : "absent",
          static_cast<unsigned long long>(recovery.records_replayed),
          static_cast<unsigned long long>(recovery.replay_from),
          static_cast<unsigned long long>(recovery.next_seq));
    } else if (journal->next_seq() != 0) {
      std::fprintf(stderr,
                   "journal %s already holds records up to seq %llu; pass "
                   "--recover to resume it (or point --journal-dir at a "
                   "fresh directory)\n",
                   journal_dir.string().c_str(),
                   static_cast<unsigned long long>(journal->next_seq()));
      return kExitError;
    }
    live.set_journal(&*journal);
    live.set_checkpoint(checkpoint_path, args.u64_or("checkpoint-every", 0));
  } else if (args.has("recover") || args.has("checkpoint-every")) {
    std::fprintf(stderr, "--recover/--checkpoint-every need --journal-dir\n");
    return usage();
  }

  const fs::path updates_path =
      args.has("updates") ? fs::path{args.get("updates")} : dir / "updates.txt";
  std::ifstream updates_is{updates_path};
  if (!updates_is) {
    std::fprintf(stderr, "missing %s\n", updates_path.string().c_str());
    return kExitError;
  }
  bgp::UpdateTextReader reader{live_options.mode};
  std::printf("replaying updates from %s (batch %zu)\n",
              updates_path.string().c_str(), live_options.flush_batch);

  // Optional HTTP front end: queries hit the evolving snapshots while
  // the replay runs.
  std::optional<serve::HttpServer> server;
  if (args.has("port")) {
    serve::HttpServerOptions http_options;
    http_options.bind_address = args.get("bind", "127.0.0.1");
    http_options.port = static_cast<std::uint16_t>(args.size_or("port", 8080));
    http_options.threads = args.thread_count_or("threads", 4);
    server.emplace(service, http_options);
    try {
      server->start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot start server: %s\n", e.what());
      return kExitError;
    }
    std::printf("listening on %s:%u\n", http_options.bind_address.c_str(),
                static_cast<unsigned>(server->port()));
    std::fflush(stdout);  // scripts parse the port from this line
  }

  auto print_report = [](const live::FlushReport& report) {
    if (!report.published) return;
    // delta = Pipeline::apply_delta patched the burst's routes; full =
    // apply_updates re-sanitized the whole window.
    const char* path = report.apply.sanitize_fast_path ? "delta" : "full";
    std::printf("  flush -> snapshot %llu: %zu updates (%zu ann, %zu wd), "
                "%zu prefixes -> %zu countries, path %s, shards %zu kept / "
                "%zu rebuilt, memos %zu warm, %.1f ms\n",
                static_cast<unsigned long long>(report.snapshot_id),
                report.batch, report.announces, report.withdraws,
                report.touched_prefixes, report.touched_countries.size(),
                path, report.apply.shards_kept, report.apply.shards_rebuilt,
                report.apply.memos_kept, report.total_seconds * 1e3);
  };

  // Self-pipe signal handling: SIGINT/SIGTERM break the replay loop so
  // shutdown always takes the graceful path — drain, final checkpoint,
  // journal sync — instead of dying mid-batch.
  serve::SignalPipe signals;

  // Stream line by line (not read_all) so a fifo feeder's updates are
  // journaled as they arrive; the CI recovery tier kills this process
  // mid-burst and expects the journal to hold everything it accepted.
  std::string line;
  bgp::UpdateMessage message;
  while (std::getline(updates_is, line)) {
    if (signals.signalled()) {
      std::printf("interrupted; draining\n");
      break;
    }
    if (!reader.parse_line(line, message)) continue;
    if (auto report = live.push(message)) print_report(*report);
  }
  live.set_parse_stats(reader.stats());
  const live::FlushReport final_report = live.drain();
  print_report(final_report);

  if (journal) {
    // Shutdown checkpoint: the next --recover restores this state and
    // replays nothing. write_checkpoint() syncs the journal first.
    live.write_checkpoint();
    std::printf("checkpointed at seq %llu (%llu journaled records in %llu "
                "segments)\n",
                static_cast<unsigned long long>(live.next_seq()),
                static_cast<unsigned long long>(journal->stats().records),
                static_cast<unsigned long long>(journal->stats().segments));
  }

  const live::LiveStats& stats = live.stats();
  std::printf("replay done: %llu applied (%llu ann, %llu wd), %llu "
              "out-of-order, %llu out-of-range, %zu spurious withdrawals, "
              "%llu days (%llu quiet), %llu publishes\n",
              static_cast<unsigned long long>(stats.applied),
              static_cast<unsigned long long>(stats.announces),
              static_cast<unsigned long long>(stats.withdraws),
              static_cast<unsigned long long>(stats.out_of_order),
              static_cast<unsigned long long>(stats.day_out_of_range),
              live.rib().spurious_withdrawals(),
              static_cast<unsigned long long>(stats.days_closed + 1),
              static_cast<unsigned long long>(stats.quiet_days),
              static_cast<unsigned long long>(stats.publishes));
  if (args.has("ingest-stats")) print_ingest_stats(reader.stats());

  if (stats.publishes == 0) {
    std::fprintf(stderr, "no updates applied; nothing published\n");
    return kExitEmptyResult;
  }

  if (args.has("out")) {
    // Freeze the final state with pinned identity so the bytes are
    // comparable against a batch `georank snapshot` of the same archive.
    // current() can be null after a recovery that replayed nothing new
    // (publishes restored from the checkpoint, no fresh flush).
    const std::shared_ptr<const serve::Snapshot> current = service.current();
    serve::SnapshotMeta meta;
    meta.id = args.u64_or(
        "id", current ? current->meta.id
                      : live_options.snapshot_id_base + stats.publishes);
    meta.created_unix =
        args.u64_or("created", current ? current->meta.created_unix : 0);
    meta.label = args.get("label");
    serve::Snapshot final_snapshot =
        serve::Snapshot::build(pipeline, std::move(meta));
    std::ofstream os{args.get("out"), std::ios::binary};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", args.get("out").c_str());
      return kExitError;
    }
    io::write_snapshot(os, final_snapshot);
    if (!os.flush()) {
      std::fprintf(stderr, "short write to %s\n", args.get("out").c_str());
      return kExitError;
    }
    std::printf("wrote snapshot id %llu (%zu countries) to %s\n",
                static_cast<unsigned long long>(final_snapshot.meta.id),
                final_snapshot.countries.size(), args.get("out").c_str());
  }

  if (server) {
    // Stay up for queries until interrupted (mirrors cmd_serve),
    // ticking the staleness state machine so /v1/health tracks the
    // watermark's age while we idle. With --follow, keep consuming
    // lines appended to the updates file; when the file vanishes, back
    // off with the monitor's jittered exponential ladder and treat a
    // reopened file as a rotation (consume it from the beginning).
    live::HealthMonitorOptions monitor_options;
    const double stale_after = args.double_or(
        "stale-after", monitor_options.staleness.stale_after_seconds);
    monitor_options.staleness.stale_after_seconds = stale_after;
    monitor_options.staleness.degraded_after_seconds =
        args.double_or("degraded-after", stale_after * 3.0);
    live::HealthMonitor monitor{monitor_options};
    const auto start = std::chrono::steady_clock::now();
    auto now = [start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    monitor.note_progress(now());  // the replay just advanced the stream
    service.set_live_health(live_health_of(monitor, now()));

    const bool follow = args.has("follow");
    bool followed_past_drain = false;
    while (!signals.wait(200)) {
      if (follow) {
        bool advanced = false;
        updates_is.clear();
        while (std::getline(updates_is, line)) {
          if (!reader.parse_line(line, message)) continue;
          if (auto report = live.push(message)) print_report(*report);
          advanced = true;
          followed_past_drain = true;
        }
        live.set_parse_stats(reader.stats());
        if (advanced) {
          monitor.note_progress(now());
        } else if (!fs::exists(updates_path)) {
          const double delay = monitor.note_reopen_failure(now());
          service.set_live_health(live_health_of(monitor, now()));
          if (signals.wait(static_cast<int>(delay * 1000.0))) break;
          std::ifstream reopened{updates_path};
          if (reopened) {
            updates_is = std::move(reopened);
            monitor.note_reopen_success(now());
          }
        }
      }
      monitor.tick(now());
      service.set_live_health(live_health_of(monitor, now()));
    }
    if (followed_past_drain) {
      // --follow pushed past the pre-serve drain; drain again so the
      // shutdown checkpoint captures everything.
      print_report(live.drain());
      if (journal) live.write_checkpoint();
    }
    std::printf("draining...\n");
    server->stop();
  }
  return kExitOk;
}

// -------------------------------------------------------------- journal

/// Read-only inspection of a GRJRNL01 journal directory and the
/// checkpoint beside it. Never repairs or truncates, so it is safe to
/// point at a journal a running `georank live` has open for append —
/// CI's recovery tier polls this to decide when the feeder has durably
/// absorbed a burst before delivering its kill -9.
int cmd_journal(const Args& args) {
  if (!args.has("dir")) return usage();
  const fs::path dir = args.get("dir");
  try {
    const live::JournalScan scan = live::scan_journal(dir.string());
    std::printf("records %llu segments %llu next-seq %llu torn-bytes %llu\n",
                static_cast<unsigned long long>(scan.records),
                static_cast<unsigned long long>(scan.segments),
                static_cast<unsigned long long>(scan.next_seq),
                static_cast<unsigned long long>(scan.torn_bytes));
    const std::string checkpoint_path = (dir / "checkpoint.grckpt").string();
    if (const auto checkpoint = live::load_checkpoint_file(checkpoint_path)) {
      std::printf("checkpoint seq %llu routes %zu pending %zu publishes %llu\n",
                  static_cast<unsigned long long>(checkpoint->seq),
                  checkpoint->rib_entries.size(), checkpoint->pending.size(),
                  static_cast<unsigned long long>(checkpoint->stats.publishes));
    } else {
      std::printf("checkpoint none\n");
    }
  } catch (const live::JournalError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitParseFailure;
  }
  return kExitOk;
}

// ---------------------------------------------------------------- serve

// ------------------------------------------------------------- whatif

int cmd_whatif(const Args& args) {
  if (!args.has("dir") || !args.has("scenario")) return usage();

  std::ifstream scenario_is{args.get("scenario")};
  if (!scenario_is) {
    std::fprintf(stderr, "cannot open %s\n", args.get("scenario").c_str());
    return kExitError;
  }
  std::ostringstream scenario_text;
  scenario_text << scenario_is.rdbuf();

  scenario::Scenario parsed;
  try {
    parsed = scenario::parse(scenario_text.str());
  } catch (const scenario::ScenarioParseError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return kExitParseFailure;
  }

  int fail_code = kExitError;
  auto data = load_dataset(args.get("dir"), args.has("infer"),
                           args.has("strict"), &fail_code,
                           args.thread_count_or("ingest-threads", 0));
  if (!data) return fail_code;
  core::Pipeline pipeline = make_pipeline(*data, degradation_from_args(args));

  auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  // --id pins the snapshot identity the JSON reports, so a `serve --id
  // N` endpoint and a `whatif --id N` file are byte-comparable.
  const std::uint64_t snapshot_id = args.u64_or("id", now);

  scenario::WhatIfEngine engine{pipeline, data->relationships, data->registry,
                                data->ribs};
  if (engine.baseline().empty()) {
    std::fprintf(stderr, "no geolocated evidence in this data set\n");
    return kExitEmptyResult;
  }

  scenario::Report report;
  try {
    report = engine.run(parsed, args.size_or("top", 10));
  } catch (const scenario::ApplyError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return kExitParseFailure;
  }

  std::fputs(scenario::render_text(report).c_str(), stdout);

  if (args.has("out")) {
    std::ofstream os{args.get("out"), std::ios::binary};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", args.get("out").c_str());
      return kExitError;
    }
    // Exactly the /v1/whatif 200 body (no trailing newline): the CI
    // whatif tier byte-compares this file against a curl of the
    // endpoint.
    os << serve::render_whatif_json(report, snapshot_id);
    if (!os.flush()) {
      std::fprintf(stderr, "short write to %s\n", args.get("out").c_str());
      return kExitError;
    }
    std::printf("wrote %s\n", args.get("out").c_str());
  }
  if (args.has("csv")) {
    std::ofstream os{args.get("csv"), std::ios::binary};
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", args.get("csv").c_str());
      return kExitError;
    }
    os << scenario::render_csv(report);
    if (!os.flush()) {
      std::fprintf(stderr, "short write to %s\n", args.get("csv").c_str());
      return kExitError;
    }
    std::printf("wrote %s\n", args.get("csv").c_str());
  }
  return kExitOk;
}

int cmd_serve(const Args& args) {
  if (!args.has("snapshot") && !args.has("dir")) return usage();

  serve::RankingServiceOptions service_options;
  service_options.cache_capacity = args.size_or("cache", 256);
  service_options.history_limit = args.size_or("history", 8);
  serve::RankingService service{service_options};

  // Serving from a data directory keeps the dataset + pipeline alive so
  // /v1/whatif has a world to counterfact over; snapshot-file serving
  // has no RIB data and leaves the endpoint answering 503.
  std::optional<DataSet> data;
  std::optional<core::Pipeline> pipeline;
  std::optional<scenario::WhatIfEngine> engine;

  if (args.has("snapshot")) {
    const std::string snapshot_list = args.get("snapshot");
    for (std::string_view field : util::split(snapshot_list, ',')) {
      const std::string path{util::trim(field)};
      try {
        std::ifstream is{path, std::ios::binary};
        if (!is) {
          std::fprintf(stderr, "cannot open %s\n", path.c_str());
          return kExitError;
        }
        auto snapshot =
            std::make_shared<serve::Snapshot>(io::read_snapshot(is));
        std::printf("loaded snapshot id %llu (%zu countries) from %s\n",
                    static_cast<unsigned long long>(snapshot->meta.id),
                    snapshot->countries.size(), path.c_str());
        service.publish(std::move(snapshot));
      } catch (const io::SnapshotDecodeError& e) {
        std::fprintf(stderr, "rejected snapshot %s: %s\n", path.c_str(),
                     e.what());
        return kExitParseFailure;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(), e.what());
        return kExitError;
      }
    }
  } else {
    int fail_code = kExitError;
    data = load_dataset(args.get("dir"), args.has("infer"), args.has("strict"),
                        &fail_code,
                        args.thread_count_or("ingest-threads", 0));
    if (!data) return fail_code;
    pipeline.emplace(make_pipeline(*data, degradation_from_args(args)));

    auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    serve::SnapshotMeta meta;
    meta.id = args.u64_or("id", now);
    meta.created_unix = args.u64_or("created", now);
    meta.label = args.get("label");
    serve::Snapshot snapshot =
        serve::Snapshot::build(*pipeline, std::move(meta));
    if (snapshot.countries.empty()) {
      std::fprintf(stderr, "no geolocated evidence in this data set\n");
      return kExitEmptyResult;
    }
    service.publish(std::make_shared<serve::Snapshot>(std::move(snapshot)));

    engine.emplace(*pipeline, data->relationships, data->registry,
                   data->ribs);
    service.set_whatif(&*engine);
    std::printf("what-if engine attached (%zu baseline countries)\n",
                engine->baseline().size());
  }

  serve::HttpServerOptions http_options;
  http_options.bind_address = args.get("bind", "127.0.0.1");
  http_options.port = static_cast<std::uint16_t>(args.size_or("port", 8080));
  http_options.threads = args.thread_count_or("threads", 4);
  serve::HttpServer server{service, http_options};
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start server: %s\n", e.what());
    return kExitError;
  }
  std::printf("listening on %s:%u\n", http_options.bind_address.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);  // scripts parse the port from this line

  // Self-pipe signal handling: SIGINT/SIGTERM wake the park below and
  // shutdown takes the graceful drain path.
  serve::SignalPipe signals;
  (void)signals.wait();

  std::printf("draining...\n");
  server.stop();
  const serve::HttpServerStats stats = server.stats();
  std::printf("served %llu requests over %llu connections\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = util::Options::parse(argc, argv);
  if (!args) return usage();
  try {
    if (args->command() == "generate") return cmd_generate(*args);
    if (args->command() == "sanitize") return cmd_sanitize(*args);
    if (args->command() == "rank") return cmd_rank(*args);
    if (args->command() == "stability") return cmd_stability(*args);
    if (args->command() == "compare") return cmd_compare(*args);
    if (args->command() == "infer") return cmd_infer(*args);
    if (args->command() == "health") return cmd_health(*args);
    if (args->command() == "robustness") return cmd_robustness(*args);
    if (args->command() == "snapshot") return cmd_snapshot(*args);
    if (args->command() == "serve") return cmd_serve(*args);
    if (args->command() == "whatif") return cmd_whatif(*args);
    if (args->command() == "live") return cmd_live(*args);
    if (args->command() == "journal") return cmd_journal(*args);
  } catch (const bgp::MrtParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return kExitParseFailure;
  } catch (const bgp::UpdateReplayError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return kExitParseFailure;
  } catch (const live::JournalError& e) {
    std::fprintf(stderr, "journal error: %s\n", e.what());
    return kExitParseFailure;
  } catch (const util::OptionParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitError;
  }
  return usage();
}
