// Round-trip and fault-injection coverage for the binary snapshot
// format (io/snapshot_codec.hpp). The integrity contract under test:
// a decode either reproduces the encoded snapshot bit-for-bit or throws
// SnapshotDecodeError — there is no third outcome, even for a file with
// any single byte corrupted.
#include "io/snapshot_codec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/pipeline.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "serve/snapshot.hpp"

namespace georank::io {
namespace {

struct CodecFixture {
  gen::World world;
  core::Pipeline pipeline;
  serve::Snapshot snapshot;

  CodecFixture()
      : world(gen::InternetGenerator{gen::mini_world_spec(21)}.generate()),
        pipeline(world.geo_db, world.vps, world.asn_registry, world.graph,
                 make_config(world)) {
    gen::NoiseSpec noise;
    pipeline.load(gen::RibGenerator{world, noise, 5}.generate(3));
    snapshot = serve::Snapshot::build(
        pipeline, serve::SnapshotMeta{42, 1617235200, "mini-21/fixture"});
  }

  static core::PipelineConfig make_config(const gen::World& w) {
    core::PipelineConfig config;
    config.sanitizer.clique = w.clique;
    config.sanitizer.route_server_asns = w.route_servers;
    return config;
  }
};

/// One shared fixture: the snapshot build (full census) is the slow
/// part, and every test here only reads it.
const serve::Snapshot& fixture() {
  static const CodecFixture shared;
  return shared.snapshot;
}

void expect_identical(const serve::Snapshot& a, const serve::Snapshot& b) {
  EXPECT_EQ(a.meta.id, b.meta.id);
  EXPECT_EQ(a.meta.created_unix, b.meta.created_unix);
  EXPECT_EQ(a.meta.label, b.meta.label);

  ASSERT_EQ(a.countries.size(), b.countries.size());
  for (std::size_t i = 0; i < a.countries.size(); ++i) {
    const core::CountryMetrics& x = a.countries[i];
    const core::CountryMetrics& y = b.countries[i];
    EXPECT_EQ(x.country.raw(), y.country.raw());
    EXPECT_EQ(x.confidence, y.confidence);
    EXPECT_EQ(x.national_vps, y.national_vps);
    EXPECT_EQ(x.international_vps, y.international_vps);
    EXPECT_EQ(x.national_addresses, y.national_addresses);
    EXPECT_EQ(x.international_addresses, y.international_addresses);
    // Bit-exact, not approximate: doubles travel as IEEE-754 patterns.
    EXPECT_EQ(x.geo_consensus, y.geo_consensus);
    for (auto [r1, r2] : {std::pair{&x.cci, &y.cci}, std::pair{&x.ccn, &y.ccn},
                          std::pair{&x.ahi, &y.ahi}, std::pair{&x.ahn, &y.ahn}}) {
      ASSERT_EQ(r1->size(), r2->size());
      for (std::size_t k = 0; k < r1->size(); ++k) {
        EXPECT_EQ(r1->entries()[k].asn, r2->entries()[k].asn);
        EXPECT_EQ(r1->entries()[k].score, r2->entries()[k].score);
      }
    }
  }

  EXPECT_EQ(a.health.policy.min_vps, b.health.policy.min_vps);
  EXPECT_EQ(a.health.policy.min_geo_consensus, b.health.policy.min_geo_consensus);
  EXPECT_EQ(a.health.ingest_drop_rate, b.health.ingest_drop_rate);
  EXPECT_EQ(a.health.sanitize_drop_rate, b.health.sanitize_drop_rate);
  ASSERT_EQ(a.health.countries.size(), b.health.countries.size());
  for (std::size_t i = 0; i < a.health.countries.size(); ++i) {
    const core::CountryHealth& x = a.health.countries[i];
    const core::CountryHealth& y = b.health.countries[i];
    EXPECT_EQ(x.country.raw(), y.country.raw());
    EXPECT_EQ(x.national_tier, y.national_tier);
    EXPECT_EQ(x.international_tier, y.international_tier);
    EXPECT_EQ(x.geo_tier, y.geo_tier);
    EXPECT_EQ(x.overall, y.overall);
    EXPECT_EQ(x.national_vps, y.national_vps);
    EXPECT_EQ(x.international_vps, y.international_vps);
    EXPECT_EQ(x.accepted_prefixes, y.accepted_prefixes);
    EXPECT_EQ(x.geolocated_addresses, y.geolocated_addresses);
    EXPECT_EQ(x.no_consensus_prefixes, y.no_consensus_prefixes);
    EXPECT_EQ(x.no_consensus_addresses, y.no_consensus_addresses);
  }
}

// Little-endian field access for the hand-surgery tests below.
std::uint32_t get_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}
std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}
void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}
void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kEntrySize = 32;

TEST(SnapshotCodec, RoundTripIsBitExact) {
  const serve::Snapshot& original = fixture();
  ASSERT_FALSE(original.countries.empty());
  const std::string bytes = encode_snapshot(original);
  serve::Snapshot decoded = decode_snapshot(bytes);
  expect_identical(original, decoded);
  // And the codec is a fixed point: re-encoding the decode reproduces
  // the byte stream exactly.
  EXPECT_EQ(encode_snapshot(decoded), bytes);
}

TEST(SnapshotCodec, StreamRoundTrip) {
  std::stringstream stream;
  write_snapshot(stream, fixture());
  serve::Snapshot decoded = read_snapshot(stream);
  expect_identical(fixture(), decoded);
}

TEST(SnapshotCodec, RejectsEmptyAndTruncatedInput) {
  EXPECT_THROW((void)decode_snapshot(""), SnapshotDecodeError);
  const std::string bytes = encode_snapshot(fixture());
  for (std::size_t keep :
       {std::size_t{4}, std::size_t{12}, kHeaderSize, bytes.size() / 2,
        bytes.size() - 1}) {
    try {
      (void)decode_snapshot(std::string_view(bytes).substr(0, keep));
      FAIL() << "decode of " << keep << "-byte prefix must throw";
    } catch (const SnapshotDecodeError&) {
    }
  }
}

TEST(SnapshotCodec, EveryTruncationPrefixIsRejected) {
  // The torn-write guarantee behind checkpoint/journal recovery: NO
  // proper prefix of a valid file decodes — a crash mid-write can
  // produce any truncation length, and each one must surface as a
  // typed error, never as a silently shorter snapshot. A tiny
  // hand-built snapshot keeps the exhaustive every-length sweep cheap
  // (the big fixture above covers spot truncations).
  serve::Snapshot tiny;
  tiny.meta.id = 7;
  tiny.meta.created_unix = 1617235200;
  tiny.meta.label = "tiny";
  core::CountryMetrics m;
  m.country = geo::CountryCode::of("AU");
  m.cci = rank::Ranking::from_scores({{3356, 0.9}, {1299, 0.5}});
  m.ccn = rank::Ranking::from_scores({{3356, 0.45}});
  m.ahi = rank::Ranking::from_scores({{1299, 0.25}});
  m.ahn = rank::Ranking::from_scores({{174, 0.125}});
  m.national_vps = 4;
  m.international_vps = 9;
  m.national_addresses = 1000;
  m.international_addresses = 2000;
  m.confidence = core::ConfidenceTier::kHigh;
  m.geo_consensus = 0.875;
  tiny.countries.push_back(m);
  core::CountryHealth h;
  h.country = m.country;
  h.national_vps = m.national_vps;
  h.international_vps = m.international_vps;
  h.overall = m.confidence;
  tiny.health.countries.push_back(h);

  const std::string bytes = encode_snapshot(tiny);
  EXPECT_EQ(encode_snapshot(decode_snapshot(bytes)), bytes);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    try {
      (void)decode_snapshot(std::string_view(bytes).substr(0, keep));
      FAIL() << "decode of " << keep << "-byte prefix (of " << bytes.size()
             << ") must throw";
    } catch (const SnapshotDecodeError&) {
    }
  }
}

TEST(SnapshotCodec, RejectsBadMagicAndForeignFiles) {
  std::string bytes = encode_snapshot(fixture());
  bytes[0] = 'X';
  try {
    (void)decode_snapshot(bytes);
    FAIL() << "bad magic must throw";
  } catch (const SnapshotDecodeError& e) {
    EXPECT_EQ(e.error(), SnapshotError::kBadMagic);
  }
  try {
    (void)decode_snapshot("country,metric,rank,asn,score\nAU,CCI,1,3356,0.9\n");
    FAIL() << "a CSV is not a snapshot";
  } catch (const SnapshotDecodeError& e) {
    EXPECT_EQ(e.error(), SnapshotError::kBadMagic);
  }
}

TEST(SnapshotCodec, RejectsNewerMajorVersion) {
  std::string bytes = encode_snapshot(fixture());
  put_u32(bytes, 8, kSnapshotVersion + 1);
  try {
    (void)decode_snapshot(bytes);
    FAIL() << "newer version must throw";
  } catch (const SnapshotDecodeError& e) {
    EXPECT_EQ(e.error(), SnapshotError::kBadVersion);
  }
}

TEST(SnapshotCodec, RejectsHeaderTableTampering) {
  std::string bytes = encode_snapshot(fixture());
  // Flip one byte inside the first table entry's offset field; the
  // header checksum must catch it before any section is trusted.
  bytes[kHeaderSize + 8] = static_cast<char>(bytes[kHeaderSize + 8] ^ 0x01);
  try {
    (void)decode_snapshot(bytes);
    FAIL() << "table tampering must throw";
  } catch (const SnapshotDecodeError& e) {
    EXPECT_EQ(e.error(), SnapshotError::kHeaderChecksum);
  }
}

TEST(SnapshotCodec, RejectsPayloadCorruption) {
  std::string bytes = encode_snapshot(fixture());
  const std::size_t table_end =
      kHeaderSize + get_u32(bytes, 12) * kEntrySize;
  std::size_t target = table_end + (bytes.size() - table_end) / 2;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x80);
  try {
    (void)decode_snapshot(bytes);
    FAIL() << "payload corruption must throw";
  } catch (const SnapshotDecodeError& e) {
    EXPECT_EQ(e.error(), SnapshotError::kSectionChecksum);
  }
}

TEST(SnapshotCodec, EverySingleByteFlipIsRejected) {
  const std::string bytes = encode_snapshot(fixture());
  // The whole-file sweep is the real guarantee: every byte of the file
  // is covered by the magic, the version check, the header checksum or
  // a section checksum. Stride keeps the sweep fast while still
  // touching header, table and every section; the first 256 bytes are
  // swept exhaustively since all structural fields live there.
  const std::size_t stride = bytes.size() > 4096 ? 7 : 1;
  for (std::size_t i = 0; i < bytes.size();
       i += (i < 256 ? 1 : stride)) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x55);
    try {
      (void)decode_snapshot(corrupt);
      FAIL() << "flip at byte " << i << " decoded successfully";
    } catch (const SnapshotDecodeError&) {
    }
  }
}

TEST(SnapshotCodec, SkipsUnknownTrailingSection) {
  // Forward compatibility: append an unknown-tag section (with a valid
  // checksum) and register it in the table; the decoder must verify and
  // skip it. Growing the table shifts every payload by one entry size,
  // so existing offsets are rebased.
  std::string bytes = encode_snapshot(fixture());
  const std::uint32_t count = get_u32(bytes, 12);
  const std::size_t old_table_end = kHeaderSize + count * kEntrySize;

  const std::string extra_payload = "future-format-bytes";
  std::string grown;
  grown.append(bytes, 0, old_table_end);            // header + old table
  grown.append(kEntrySize, '\0');                   // room for the new entry
  grown.append(bytes, old_table_end, std::string::npos);  // payloads (+32)
  grown += extra_payload;

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t entry = kHeaderSize + i * kEntrySize;
    put_u64(grown, entry + 8, get_u64(grown, entry + 8) + kEntrySize);
  }
  const std::size_t new_entry = kHeaderSize + count * kEntrySize;
  std::uint32_t tag = 0;
  std::memcpy(&tag, "XTRA", 4);
  put_u32(grown, new_entry, tag);
  put_u32(grown, new_entry + 4, 0);
  put_u64(grown, new_entry + 8, grown.size() - extra_payload.size());
  put_u64(grown, new_entry + 16, extra_payload.size());
  put_u64(grown, new_entry + 24, snapshot_checksum(extra_payload));
  put_u32(grown, 12, count + 1);
  put_u64(grown, 16,
          snapshot_checksum(std::string_view(grown).substr(
              kHeaderSize, (count + 1) * kEntrySize)));

  serve::Snapshot decoded = decode_snapshot(grown);
  expect_identical(fixture(), decoded);

  // ...but a corrupted unknown section is still a corrupted file.
  grown.back() = static_cast<char>(grown.back() ^ 0x01);
  try {
    (void)decode_snapshot(grown);
    FAIL() << "corrupt unknown section must throw";
  } catch (const SnapshotDecodeError& e) {
    EXPECT_EQ(e.error(), SnapshotError::kSectionChecksum);
  }
}

TEST(SnapshotCodec, ErrorStringsAreDistinct) {
  EXPECT_NE(to_string(SnapshotError::kBadMagic),
            to_string(SnapshotError::kBadVersion));
  EXPECT_NE(to_string(SnapshotError::kHeaderChecksum),
            to_string(SnapshotError::kSectionChecksum));
  SnapshotDecodeError error{SnapshotError::kTruncated, "42 bytes"};
  EXPECT_NE(std::string(error.what()).find("42 bytes"), std::string::npos);
}

TEST(SnapshotCodec, ChecksumIsFnv1a64) {
  // Reference vectors pin the checksum so a future refactor cannot
  // silently change the on-disk format.
  EXPECT_EQ(snapshot_checksum(""), 14695981039346656037ull);
  EXPECT_EQ(snapshot_checksum("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(snapshot_checksum("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace georank::io
