#include "bgp/mrt_stream.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bgp/fault_inject.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"

namespace georank::bgp {
namespace {

RibCollection generated_collection(std::uint64_t seed = 7, int days = 3) {
  gen::World world = gen::InternetGenerator{gen::mini_world_spec(seed)}.generate();
  gen::NoiseSpec noise;
  return gen::RibGenerator{world, noise}.generate(days);
}

void expect_identical(const RibCollection& a, const RibCollection& b) {
  ASSERT_EQ(a.days.size(), b.days.size());
  for (std::size_t d = 0; d < a.days.size(); ++d) {
    EXPECT_EQ(a.days[d].day, b.days[d].day);
    EXPECT_EQ(a.days[d].entries, b.days[d].entries) << "day index " << d;
  }
}

void expect_invariant(const MrtParseStats& s) {
  EXPECT_EQ(s.parsed + s.malformed + s.skipped_comments, s.lines);
  EXPECT_EQ(s.malformed, s.bad_field_count + s.bad_record_type +
                             s.bad_timestamp + s.bad_ip + s.bad_asn +
                             s.bad_prefix + s.bad_path + s.empty_path +
                             s.day_out_of_range);
}

void expect_same_stats(const MrtParseStats& a, const MrtParseStats& b) {
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.parsed, b.parsed);
  EXPECT_EQ(a.malformed, b.malformed);
  EXPECT_EQ(a.skipped_comments, b.skipped_comments);
  for (std::size_t r = 0; r < kParseReasonCount; ++r) {
    const auto reason = static_cast<ParseReason>(r);
    EXPECT_EQ(a.reason_count(reason), b.reason_count(reason))
        << "reason: " << to_string(reason);
  }
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].line_number, b.samples[i].line_number);
    EXPECT_EQ(a.samples[i].reason, b.samples[i].reason);
    EXPECT_EQ(a.samples[i].text, b.samples[i].text);
  }
  EXPECT_EQ(a.bytes, b.bytes);
}

// ---- Parallel chunked load == one sequential whole-input pass. ----

TEST(MrtStream, BitIdenticalToSequentialReaderAcrossChunkSizes) {
  // A few malformed lines and comments so the stats comparison covers
  // the per-reason counters and samples, not just `parsed`.
  std::string text = "# header\n" + to_mrt_text(generated_collection()) +
                     "TABLE_DUMP2|x|B|1.2.3.4|701|10.0.0.0/16|701|IGP\n"
                     "\n"
                     "TABLE_DUMP2|1|B|1.2.3.4|701|10.0.0.0/99|701|IGP\n";
  MrtStreamOptions sequential;
  sequential.threads = 1;
  sequential.chunk_bytes = text.size();
  MrtStreamLoader reference{sequential};
  RibCollection expected = reference.load_text(text);
  ASSERT_GT(expected.total_entries(), 0u);
  ASSERT_EQ(reference.stats().malformed, 2u);

  for (std::size_t chunk_bytes : {std::size_t{64}, std::size_t{1024},
                                  std::size_t{1} << 20}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("chunk_bytes " + std::to_string(chunk_bytes) +
                   ", threads " + std::to_string(threads));
      MrtStreamOptions options;
      options.chunk_bytes = chunk_bytes;
      options.threads = threads;
      MrtStreamLoader loader{options};
      RibCollection got = loader.load_text(text);
      expect_identical(got, expected);
      expect_same_stats(loader.stats(), reference.stats());
      EXPECT_EQ(loader.stats().bytes, text.size());
      expect_invariant(loader.stats());
    }
  }
}

TEST(MrtStream, IstreamAndTextLoadsAgree) {
  std::string text = to_mrt_text(generated_collection(11, 2));
  MrtStreamOptions options;
  options.chunk_bytes = 256;
  MrtStreamLoader text_loader{options};
  RibCollection from_text = text_loader.load_text(text);

  std::istringstream is{text};
  MrtStreamLoader stream_loader{options};
  RibCollection from_stream = stream_loader.load(is);

  expect_identical(from_stream, from_text);
  EXPECT_EQ(stream_loader.stats().lines, text_loader.stats().lines);
  EXPECT_EQ(stream_loader.stats().bytes, text_loader.stats().bytes);
}

// ---- The text format, read through the loader. ----

TEST(MrtText, LineRoundTrip) {
  const RouteEntry sample{VpId{0xC0A80101, 701}, *Prefix::parse("10.0.0.0/16"),
                          AsPath{701, 3356, 1299}};
  std::ostringstream os;
  MrtTextWriter writer{os};
  writer.write_entry(sample, 3);

  std::string line = os.str();
  line.pop_back();  // the loader hands parse_line lines without '\n'
  MrtParseStats stats;
  RouteEntry entry;
  int day = -1;
  ASSERT_TRUE(parse_line(line, MrtStreamOptions{}, stats, entry, day));
  EXPECT_EQ(entry, sample);
  EXPECT_EQ(day, 3);
  EXPECT_EQ(stats.lines, 1u);
  EXPECT_EQ(stats.parsed, 1u);
}

TEST(MrtText, StrictModeThrowsWithLineAndReason) {
  MrtStreamOptions options;
  options.mode = ParseMode::kStrict;
  MrtParseStats stats;
  RouteEntry entry;
  int day = 0;
  EXPECT_TRUE(parse_line("TABLE_DUMP2|1617235200|B|1.2.3.4|701|10.0.0.0/16|701|IGP",
                         options, stats, entry, day));
  try {
    (void)parse_line("TABLE_DUMP2|x|B|1.2.3.4|701|10.0.0.0/16|701|IGP",
                     options, stats, entry, day);
    FAIL() << "strict parse accepted a bad timestamp";
  } catch (const MrtParseError& e) {
    EXPECT_EQ(e.line_number(), 2u);
    EXPECT_EQ(e.reason(), ParseReason::kBadTimestamp);
  }
}

TEST(MrtText, RejectsTimestampBeforeBaseAsDayOutOfRange) {
  // Regression: (ts - base_time) is computed in uint64; an earlier
  // timestamp used to wrap to a huge bogus day instead of being dropped.
  MrtParseStats stats;
  RouteEntry entry;
  int day = -1;
  EXPECT_FALSE(parse_line("TABLE_DUMP2|1617235199|B|1.2.3.4|701|10.0.0.0/16|701|IGP",
                          MrtStreamOptions{}, stats, entry, day));
  EXPECT_EQ(stats.day_out_of_range, 1u);
  EXPECT_EQ(stats.parsed, 0u);
}

TEST(MrtText, FlattensAsSetAndCountsIt) {
  MrtParseStats stats;
  RouteEntry entry;
  int day = -1;
  ASSERT_TRUE(parse_line(
      "TABLE_DUMP2|1617235200|B|1.2.3.4|701|10.0.0.0/16|701 {64512,64513}|IGP",
      MrtStreamOptions{}, stats, entry, day));
  EXPECT_EQ(stats.as_set, 1u);
  EXPECT_EQ(stats.parsed, 1u);  // informational: the line still parses
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_TRUE(entry.path.has_as_set());
  EXPECT_EQ(entry.path.to_string(), "701 64512 64513");
  EXPECT_EQ(day, 0);
}

TEST(MrtText, SkipsCommentsAndBlanks) {
  std::string text =
      "# a comment\n"
      "\n"
      "TABLE_DUMP2|1617235200|B|1.2.3.4|701|10.0.0.0/16|701 1299|IGP\n";
  MrtStreamLoader loader;
  RibCollection out = loader.load_text(text);
  EXPECT_EQ(out.total_entries(), 1u);
  EXPECT_EQ(loader.stats().skipped_comments, 2u);
  EXPECT_EQ(loader.stats().malformed, 0u);
}

// Hand-written faults the injection corpus never produces: a wrong
// record type and an AS0 peer, beside one line per other reason.
TEST(MrtText, CountsMalformedLines) {
  std::string text =
      "TABLE_DUMP2|x|B|1.2.3.4|701|10.0.0.0/16|701|IGP\n"   // bad timestamp
      "TABLE_DUMP2|1|B|999.2.3.4|701|10.0.0.0/16|701|IGP\n"  // bad ip
      "TABLE_DUMP2|1|B|1.2.3.4|zzz|10.0.0.0/16|701|IGP\n"    // bad asn
      "TABLE_DUMP2|1|B|1.2.3.4|701|10.0.0.0/99|701|IGP\n"    // bad prefix
      "TABLE_DUMP2|1|B|1.2.3.4|701|10.0.0.0/16|70x|IGP\n"    // bad path
      "TABLE_DUMP2|1|B|1.2.3.4|701|10.0.0.0/16||IGP\n"       // empty path
      "TABLE_DUMP2|1|B|1.2.3.4|0|10.0.0.0/16|701|IGP\n"      // AS0 VP
      "BGP4MP|1|A|1.2.3.4|701|10.0.0.0/16|701|IGP\n"         // wrong type
      "TABLE_DUMP2|1|B|1.2.3.4|701|10.0.0.0/16|701\n";       // missing field
  MrtStreamLoader loader;
  RibCollection out = loader.load_text(text);
  const MrtParseStats& stats = loader.stats();
  EXPECT_EQ(out.total_entries(), 0u);
  EXPECT_EQ(stats.malformed, 9u);
  // Each drop is attributed to a concrete reason.
  EXPECT_EQ(stats.bad_timestamp, 1u);
  EXPECT_EQ(stats.bad_ip, 1u);
  EXPECT_EQ(stats.bad_asn, 2u);  // zzz + AS0
  EXPECT_EQ(stats.bad_prefix, 1u);
  EXPECT_EQ(stats.bad_path, 1u);
  EXPECT_EQ(stats.empty_path, 1u);
  EXPECT_EQ(stats.bad_record_type, 1u);
  EXPECT_EQ(stats.bad_field_count, 1u);
  // ... and the first offenders are retained for auditing.
  ASSERT_EQ(stats.samples.size(), MrtParseStats::kMaxSamples);
  EXPECT_EQ(stats.samples[0].line_number, 1u);
  EXPECT_EQ(stats.samples[0].reason, ParseReason::kBadTimestamp);
}

TEST(MrtText, GroupsByDay) {
  std::string text =
      "TABLE_DUMP2|1617235200|B|1.2.3.4|701|10.0.0.0/16|701|IGP\n"
      "TABLE_DUMP2|1617321600|B|1.2.3.4|701|10.0.0.0/16|701|IGP\n"
      "TABLE_DUMP2|1617235200|B|1.2.3.5|702|10.1.0.0/16|702|IGP\n";
  RibCollection out = MrtStreamLoader{}.load_text(text);
  ASSERT_EQ(out.days.size(), 2u);
  EXPECT_EQ(out.days[0].day, 0);
  EXPECT_EQ(out.days[0].entries.size(), 2u);
  EXPECT_EQ(out.days[1].day, 1);
  EXPECT_EQ(out.days[1].entries.size(), 1u);
}

// ---- Chunking edge cases. ----

TEST(MrtStream, InputWithoutTrailingNewlineParses) {
  std::string text =
      "TABLE_DUMP2|1617235200|B|1.2.3.4|701|10.0.0.0/16|701 1299|IGP\n"
      "TABLE_DUMP2|1617235201|B|1.2.3.4|701|10.1.0.0/16|701 174|IGP";
  MrtStreamOptions options;
  options.chunk_bytes = 16;
  MrtStreamLoader loader{options};
  RibCollection got = loader.load_text(text);
  EXPECT_EQ(got.total_entries(), 2u);
  EXPECT_EQ(loader.stats().lines, 2u);
}

// ---- Fault corpus: tolerant mode drops EXACTLY the corrupted lines. ----

TEST(MrtStream, TolerantModeCountsEveryInjectedFaultByReason) {
  std::string clean = make_clean_mrt_text(3000);
  FaultSpec spec;
  spec.seed = 99;
  spec.fraction = 0.08;
  FaultCorpus corpus = inject_faults(clean, spec);
  ASSERT_GT(corpus.faults.size(), 0u);

  MrtStreamOptions options;
  options.chunk_bytes = 512;  // many chunks, exercising the merge
  MrtStreamLoader loader{options};
  RibCollection got = loader.load_text(corpus.text);
  const MrtParseStats& s = loader.stats();

  expect_invariant(s);
  EXPECT_EQ(s.lines, corpus.lines);
  // Only corrupted lines were dropped: the malformed total and every
  // per-reason counter match the injection log exactly, so every clean
  // line survived into `parsed`.
  EXPECT_EQ(s.malformed, corpus.malformed_lines());
  EXPECT_EQ(s.parsed, corpus.lines - corpus.malformed_lines());
  EXPECT_EQ(got.total_entries(), s.parsed);
  for (ParseReason reason :
       {ParseReason::kBadFieldCount, ParseReason::kBadTimestamp,
        ParseReason::kBadIp, ParseReason::kBadAsn, ParseReason::kBadPrefix,
        ParseReason::kBadPath, ParseReason::kEmptyPath,
        ParseReason::kDayOutOfRange, ParseReason::kAsSet}) {
    EXPECT_EQ(s.reason_count(reason), corpus.expected_reason_count(reason))
        << "reason: " << to_string(reason);
  }
  EXPECT_FALSE(s.samples.empty());
  EXPECT_EQ(s.samples[0].line_number, corpus.first_malformed()->line_number);
}

TEST(MrtStream, AsSetLinesParseAndAreCountedInformationally) {
  std::string clean = make_clean_mrt_text(400);
  FaultSpec spec;
  spec.seed = 5;
  spec.fraction = 0.2;
  spec.kinds = {FaultKind::kAsSet};
  FaultCorpus corpus = inject_faults(clean, spec);
  ASSERT_GT(corpus.faults.size(), 0u);
  ASSERT_EQ(corpus.malformed_lines(), 0u);

  MrtStreamLoader loader;
  RibCollection got = loader.load_text(corpus.text);
  EXPECT_EQ(loader.stats().malformed, 0u);
  EXPECT_EQ(loader.stats().parsed, corpus.lines);
  EXPECT_EQ(loader.stats().as_set, corpus.faults.size());
  EXPECT_EQ(got.total_entries(), corpus.lines);
}

// ---- Strict mode: fail fast, deterministically, with line + reason. ----

TEST(MrtStream, StrictModeThrowsAtFirstFaultInInputOrder) {
  std::string clean = make_clean_mrt_text(2000);
  FaultSpec spec;
  spec.seed = 1234;
  spec.fraction = 0.02;
  FaultCorpus corpus = inject_faults(clean, spec);
  const InjectedFault* first = corpus.first_malformed();
  ASSERT_NE(first, nullptr);

  for (std::size_t chunk_bytes : {std::size_t{128}, std::size_t{1} << 20}) {
    MrtStreamOptions options;
    options.mode = ParseMode::kStrict;
    options.chunk_bytes = chunk_bytes;
    options.threads = 4;
    MrtStreamLoader loader{options};
    try {
      (void)loader.load_text(corpus.text);
      FAIL() << "strict load accepted a corrupted corpus";
    } catch (const MrtParseError& e) {
      EXPECT_EQ(e.line_number(), first->line_number);
      EXPECT_EQ(e.reason(), expected_reason(first->kind));
      EXPECT_NE(std::string(e.what()).find(
                    std::to_string(first->line_number)),
                std::string::npos);
    }
  }
}

TEST(MrtStream, StrictModeAcceptsCleanInput) {
  std::string clean = make_clean_mrt_text(500);
  MrtStreamOptions options;
  options.mode = ParseMode::kStrict;
  options.chunk_bytes = 256;
  MrtStreamLoader loader{options};
  RibCollection got;
  EXPECT_NO_THROW(got = loader.load_text(clean));
  EXPECT_EQ(got.total_entries(), loader.stats().parsed);
  EXPECT_EQ(loader.stats().malformed, 0u);
}

// ---- Satellite regression: early timestamps must not wrap the day. ----

TEST(MrtStream, EarlyTimestampIsRejectedNotWrapped) {
  // (ts - base) in uint64 for ts < base used to wrap to a huge value and
  // either crash day grouping or file the entry under a bogus day.
  constexpr std::uint64_t kBase = 1617235200;
  std::string text =
      "TABLE_DUMP2|" + std::to_string(kBase - 1) +
      "|B|1.2.3.4|701|10.0.0.0/16|701 1299|IGP\n"
      "TABLE_DUMP2|" + std::to_string(kBase) +
      "|B|1.2.3.4|701|10.0.0.0/16|701 1299|IGP\n";
  MrtStreamLoader loader;
  RibCollection got = loader.load_text(text);
  ASSERT_EQ(got.days.size(), 1u);
  EXPECT_EQ(got.days[0].day, 0);
  EXPECT_EQ(loader.stats().day_out_of_range, 1u);
  EXPECT_EQ(loader.stats().parsed, 1u);
}

TEST(MrtStream, DayHorizonBoundaries) {
  constexpr std::uint64_t kBase = 1617235200;
  MrtStreamOptions options;
  options.max_day = 5;
  auto line_at = [&](std::uint64_t ts) {
    return "TABLE_DUMP2|" + std::to_string(ts) +
           "|B|1.2.3.4|701|10.0.0.0/16|701 1299|IGP\n";
  };
  std::string text = line_at(kBase + 5 * 86400 - 1)  // last in-range second
                     + line_at(kBase + 5 * 86400);   // first out-of-range
  MrtStreamLoader loader{options};
  RibCollection got = loader.load_text(text);
  ASSERT_EQ(got.days.size(), 1u);
  EXPECT_EQ(got.days[0].day, 4);
  EXPECT_EQ(loader.stats().day_out_of_range, 1u);
}

// ---- Satellite: writer -> loader round trip, non-default base_time. ----

TEST(MrtStream, WriterLoaderRoundTripWithCustomBaseTime) {
  constexpr std::uint64_t kBase = 946684800;  // far from the default
  RibCollection original = generated_collection(21, 4);

  std::ostringstream os;
  MrtTextWriter writer{os, kBase};
  writer.write_collection(original);

  MrtStreamOptions options;
  options.base_time = kBase;
  options.chunk_bytes = 777;  // deliberately line-unaligned
  MrtStreamLoader loader{options};
  RibCollection got = loader.load_text(os.str());

  expect_identical(got, original);
  EXPECT_EQ(loader.stats().malformed, 0u);
  EXPECT_EQ(loader.stats().parsed, original.total_entries());
  // With the default base_time every line would fall before day 0 — the
  // wraparound regression this PR fixes used to turn these into garbage
  // days instead of clean rejections.
  MrtStreamLoader wrong_base;
  RibCollection rejected = wrong_base.load_text(os.str());
  EXPECT_EQ(rejected.total_entries(), 0u);
  EXPECT_EQ(wrong_base.stats().day_out_of_range, original.total_entries());
}

// ---- Fault corpus invariant under the full loader pipeline. ----

TEST(MrtStream, ThroughputAccountingIsFilled) {
  std::string clean = make_clean_mrt_text(1000);
  MrtStreamLoader loader;
  (void)loader.load_text(clean);
  EXPECT_EQ(loader.stats().bytes, clean.size());
  EXPECT_GT(loader.stats().elapsed_seconds, 0.0);
  EXPECT_GT(loader.stats().lines_per_second(), 0.0);
  EXPECT_GT(loader.stats().mbytes_per_second(), 0.0);
}

}  // namespace
}  // namespace georank::bgp
