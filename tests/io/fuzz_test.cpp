// Mutation robustness for every text reader: randomly corrupted inputs
// must never crash, never throw, and always account for each input line
// as parsed, comment, or malformed. Real pipelines meet truncated and
// corrupted dumps routinely; tolerant-but-accounted is the contract.
#include <gtest/gtest.h>

#include <sstream>

#include "bgp/mrt_stream.hpp"
#include "bgp/prefix.hpp"
#include "bgp/update_stream.hpp"
#include "io/as_info_csv.hpp"
#include "io/as_rel.hpp"
#include "io/geo_csv.hpp"
#include "io/rankings_csv.hpp"
#include "util/rng.hpp"

namespace georank {
namespace {

/// Mutates a corpus: character flips, truncations, duplications, line
/// splices. Deterministic per seed.
std::string mutate(std::string text, util::Pcg32& rng) {
  const std::string alphabet = "0123456789abz|,.#-/ \t";
  int mutations = 1 + static_cast<int>(rng.below(40));
  for (int m = 0; m < mutations && !text.empty(); ++m) {
    std::uint32_t pos = rng.below(static_cast<std::uint32_t>(text.size()));
    switch (rng.below(4)) {
      case 0:  // flip a character
        text[pos] = alphabet[rng.below(static_cast<std::uint32_t>(alphabet.size()))];
        break;
      case 1:  // delete a character
        text.erase(pos, 1);
        break;
      case 2:  // duplicate a chunk
        text.insert(pos, text.substr(pos, rng.below(16)));
        break;
      case 3:  // chop the tail (truncated download)
        if (rng.chance(0.2)) text.resize(pos);
        break;
    }
  }
  return text;
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) ++lines;
  return lines;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, MrtTextReaderNeverCrashesAndAccounts) {
  util::Pcg32 rng{GetParam()};
  std::string corpus =
      "TABLE_DUMP2|1617235200|B|1.2.3.4|701|10.0.0.0/16|701 3356 1299|IGP\n"
      "TABLE_DUMP2|1617321600|B|4.3.2.1|702|10.1.0.0/16|702 174|IGP\n"
      "# comment line\n"
      "TABLE_DUMP2|1617235200|B|9.9.9.9|65000|192.168.0.0/24|65000|IGP\n";
  for (int round = 0; round < 50; ++round) {
    std::string text = mutate(corpus, rng);
    bgp::MrtStreamLoader loader;
    bgp::RibCollection out = loader.load_text(text);
    const bgp::MrtParseStats& stats = loader.stats();
    EXPECT_EQ(stats.lines, count_lines(text));
    EXPECT_EQ(stats.parsed + stats.malformed + stats.skipped_comments, stats.lines);
    EXPECT_EQ(out.total_entries(), stats.parsed);
  }
}

TEST_P(FuzzTest, UpdateTextReaderNeverCrashesAndAccounts) {
  util::Pcg32 rng{GetParam() + 100};
  std::string corpus =
      "BGP4MP|1000|A|1.2.3.4|701|10.0.0.0/16|701 1299|IGP\n"
      "BGP4MP|1001|W|1.2.3.4|701|10.0.0.0/16\n"
      "BGP4MP|1002|A|4.3.2.1|702|10.1.0.0/16|702 174 2914|IGP\n";
  for (int round = 0; round < 50; ++round) {
    std::string text = mutate(corpus, rng);
    bgp::MrtParseStats stats;
    auto out = bgp::from_update_text(text, &stats);
    EXPECT_EQ(stats.parsed + stats.malformed + stats.skipped_comments, stats.lines);
    EXPECT_EQ(out.size(), stats.parsed);
    // Whatever parsed must replay without crashing.
    bgp::RibState state;
    state.apply_all(out);
  }
}

TEST_P(FuzzTest, AsRelReaderNeverCrashesAndAccounts) {
  util::Pcg32 rng{GetParam() + 200};
  std::string corpus =
      "# as-rel\n"
      "3356|12389|-1|0.1200\n"
      "1299|4826|-1\n"
      "1299|174|0\n"
      "3356|1299|0\n";
  for (int round = 0; round < 50; ++round) {
    std::string text = mutate(corpus, rng);
    io::AsRelParseStats stats;
    topo::AsGraph g = io::from_as_rel(text, &stats);
    // Duplicate pairs are silently kept-first (not counted), so the three
    // counters bound but need not cover the line count.
    EXPECT_LE(stats.links + stats.malformed + stats.comments, stats.lines);
    EXPECT_EQ(g.edge_count(), stats.links);
  }
}

TEST_P(FuzzTest, GeoCsvReaderNeverCrashes) {
  util::Pcg32 rng{GetParam() + 300};
  std::string corpus =
      "# geo\n"
      "10.0.0.0,10.0.255.255,US\n"
      "10.1.0.0,10.1.255.255,AU\n"
      "10.2.0.0,10.2.255.255,JP\n";
  for (int round = 0; round < 50; ++round) {
    std::string text = mutate(corpus, rng);
    io::CsvParseStats stats;
    try {
      geo::GeoDatabase db = io::from_geo_csv(text, &stats);
      EXPECT_EQ(stats.parsed + stats.malformed + stats.comments, stats.lines);
    } catch (const std::invalid_argument&) {
      // Mutations can produce OVERLAPPING ranges, which finalize()
      // correctly rejects: an explicit error, not a crash.
    }
  }
}

TEST_P(FuzzTest, RankingCsvReaderNeverCrashes) {
  util::Pcg32 rng{GetParam() + 400};
  std::string corpus =
      "# rank,asn,score\n"
      "1,1299,0.83\n"
      "2,4826,0.81\n"
      "3,1221,0.44\n";
  for (int round = 0; round < 50; ++round) {
    std::string text = mutate(corpus, rng);
    rank::Ranking r = io::from_ranking_csv(text);
    // Scores survive as finite doubles (stod may produce inf from huge
    // mutated numbers, which from_scores tolerates; just don't crash).
    EXPECT_LE(r.size(), count_lines(text));
  }
}

TEST_P(FuzzTest, AsInfoCsvReaderNeverCrashes) {
  util::Pcg32 rng{GetParam() + 500};
  std::string corpus =
      "1221,AU,Telstra\n"
      "3356,US,Lumen\n"
      "16509,US,Amazon\n";
  for (int round = 0; round < 50; ++round) {
    std::string text = mutate(corpus, rng);
    std::istringstream is{text};
    io::CsvParseStats stats;
    io::AsInfoMap info = io::read_as_info_csv(is, &stats);
    EXPECT_EQ(stats.parsed + stats.malformed + stats.comments, stats.lines);
    EXPECT_LE(info.size(), stats.parsed);  // duplicates overwrite
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------- structured faults
//
// bgp::fault_inject-style corpora for the geo and as-rel readers: unlike
// the random mutations above, every injected fault has a KNOWN expected
// classification, so the reader's counters are checked against the
// injection log exactly — not just "some lines were dropped".

enum class GeoFault {
  kTruncateFields,  // drop the country field       -> malformed
  kExtraField,      // append a fourth field        -> malformed
  kBadIp,           // octet > 255 in first_ip      -> malformed
  kBadCountry,      // three-letter country code    -> malformed
  kInvertedRange,   // swap first/last (first>last) -> malformed
};
inline constexpr std::size_t kGeoFaultCount = 5;

struct GeoCorpus {
  std::string text;
  std::size_t clean = 0;      // lines that must parse
  std::size_t malformed = 0;  // injected faults, all classified malformed
};

/// Disjoint /16 blocks cycling through four countries; ~fraction of the
/// lines carry one uniformly drawn fault each. Deterministic per seed.
GeoCorpus make_geo_corpus(std::uint64_t seed, std::size_t lines,
                          double fraction) {
  static const char* const kCountries[] = {"US", "AU", "JP", "DE"};
  util::Pcg32 rng{seed};
  GeoCorpus corpus;
  corpus.text = "# first_ip,last_ip,country\n";
  for (std::size_t i = 0; i < lines; ++i) {
    std::uint32_t base = static_cast<std::uint32_t>((i + 1) << 16);
    std::string first = bgp::format_ipv4(base);
    std::string last = bgp::format_ipv4(base + 0xFFFF);
    std::string country = kCountries[i % 4];
    if (rng.chance(fraction)) {
      ++corpus.malformed;
      switch (static_cast<GeoFault>(rng.below(kGeoFaultCount))) {
        case GeoFault::kTruncateFields:
          corpus.text += first + "," + last + "\n";
          break;
        case GeoFault::kExtraField:
          corpus.text += first + "," + last + "," + country + ",extra\n";
          break;
        case GeoFault::kBadIp:
          corpus.text += "999.0.0." + std::to_string(rng.below(256)) + "," +
                         last + "," + country + "\n";
          break;
        case GeoFault::kBadCountry:
          corpus.text += first + "," + last + ",AUS\n";
          break;
        case GeoFault::kInvertedRange:
          corpus.text += last + "," + first + "," + country + "\n";
          break;
      }
    } else {
      ++corpus.clean;
      corpus.text += first + "," + last + "," + country + "\n";
    }
  }
  return corpus;
}

TEST_P(FuzzTest, GeoCsvClassifiesInjectedFaultsExactly) {
  GeoCorpus corpus = make_geo_corpus(GetParam() + 600, 40, 0.3);
  io::CsvParseStats stats;
  geo::GeoDatabase db = io::from_geo_csv(corpus.text, &stats);
  EXPECT_EQ(stats.lines, corpus.clean + corpus.malformed + 1);
  EXPECT_EQ(stats.comments, 1u);
  EXPECT_EQ(stats.parsed, corpus.clean);
  EXPECT_EQ(stats.malformed, corpus.malformed);
  // Malformed lines contribute no ranges (merging may shrink the count,
  // so bound rather than match).
  EXPECT_LE(db.ranges().size(), corpus.clean);
}

TEST(StructuredFaults, GeoCsvOverlappingBlocksAreAnExplicitError) {
  // Overlap is not a per-line fault: both lines parse, but finalize()
  // must reject the database as a whole rather than silently pick one.
  std::string corpus =
      "10.0.0.0,10.0.255.255,US\n"
      "10.0.128.0,10.1.0.0,AU\n";
  EXPECT_THROW((void)io::from_geo_csv(corpus), std::invalid_argument);
  // Identical duplicate ranges overlap too.
  std::string dup =
      "10.0.0.0,10.0.255.255,US\n"
      "10.0.0.0,10.0.255.255,US\n";
  EXPECT_THROW((void)io::from_geo_csv(dup), std::invalid_argument);
}

enum class RelFault {
  kTruncateFields,      // "a|b"                 -> malformed
  kFiveFields,          // extra trailing fields -> malformed
  kBadAsn,              // non-numeric ASN       -> malformed
  kZeroAsn,             // ASN 0 is reserved     -> malformed
  kSelfLoop,            // a == b                -> malformed
  kBadRel,              // rel 2 (not -1/0)      -> malformed
  kBadFraction,         // non-numeric fraction  -> malformed
  kFractionOutOfRange,  // fraction > 1          -> malformed
};
inline constexpr std::size_t kRelFaultCount = 8;

struct RelCorpus {
  std::string text;
  std::size_t clean = 0;
  std::size_t malformed = 0;
};

/// Unique (provider, customer) pairs, alternating p2c and p2p, some with
/// export fractions; ~fraction of the lines carry one fault each.
RelCorpus make_as_rel_corpus(std::uint64_t seed, std::size_t lines,
                             double fraction) {
  util::Pcg32 rng{seed};
  RelCorpus corpus;
  corpus.text = "# as-rel\n";
  for (std::size_t i = 0; i < lines; ++i) {
    std::string a = std::to_string(10 + i);
    std::string b = std::to_string(1000 + i);
    std::string rel = (i % 2 == 0) ? "-1" : "0";
    std::string clean_line = a + "|" + b + "|" + rel;
    if (i % 2 == 0 && i % 3 == 0) clean_line += "|0.5000";
    if (rng.chance(fraction)) {
      ++corpus.malformed;
      switch (static_cast<RelFault>(rng.below(kRelFaultCount))) {
        case RelFault::kTruncateFields:
          corpus.text += a + "|" + b + "\n";
          break;
        case RelFault::kFiveFields:
          corpus.text += clean_line + (i % 2 == 0 ? "|x\n" : "|1|x\n");
          break;
        case RelFault::kBadAsn:
          corpus.text += a + "x|" + b + "|" + rel + "\n";
          break;
        case RelFault::kZeroAsn:
          corpus.text += "0|" + b + "|" + rel + "\n";
          break;
        case RelFault::kSelfLoop:
          corpus.text += a + "|" + a + "|" + rel + "\n";
          break;
        case RelFault::kBadRel:
          corpus.text += a + "|" + b + "|2\n";
          break;
        case RelFault::kBadFraction:
          corpus.text += a + "|" + b + "|-1|abc\n";
          break;
        case RelFault::kFractionOutOfRange:
          corpus.text += a + "|" + b + "|-1|1.5000\n";
          break;
      }
    } else {
      ++corpus.clean;
      corpus.text += clean_line + "\n";
    }
  }
  return corpus;
}

TEST_P(FuzzTest, AsRelClassifiesInjectedFaultsExactly) {
  RelCorpus corpus = make_as_rel_corpus(GetParam() + 700, 60, 0.3);
  io::AsRelParseStats stats;
  topo::AsGraph g = io::from_as_rel(corpus.text, &stats);
  EXPECT_EQ(stats.lines, corpus.clean + corpus.malformed + 1);
  EXPECT_EQ(stats.comments, 1u);
  EXPECT_EQ(stats.links, corpus.clean);
  EXPECT_EQ(stats.malformed, corpus.malformed);
  // Every clean pair is unique, so each becomes exactly one edge.
  EXPECT_EQ(g.edge_count(), corpus.clean);
}

TEST(StructuredFaults, AsRelDuplicatePairsKeepFirstWithoutCounting) {
  std::string corpus =
      "10|20|-1|0.2500\n"
      "10|20|0\n"    // duplicate pair: kept-first, not a link, not malformed
      "20|10|-1\n";  // reversed duplicate of the same relationship
  io::AsRelParseStats stats;
  topo::AsGraph g = io::from_as_rel(corpus, &stats);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.links, 1u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(g.edge_count(), 1u);
  // The first line's p2c relationship won.
  auto rel = g.relationship(10, 20);
  ASSERT_TRUE(rel.has_value());
  EXPECT_EQ(*rel, topo::Rel::kCustomer);
}

}  // namespace
}  // namespace georank
