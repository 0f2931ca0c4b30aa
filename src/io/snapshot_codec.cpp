#include "io/snapshot_codec.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

namespace georank::io {
namespace {

// ---------------------------------------------------------------- writer

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xff));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    put_u8(out, static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    put_u8(out, static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_ranking(std::string& out, const rank::Ranking& ranking) {
  put_u64(out, ranking.size());
  for (const rank::ScoredAs& entry : ranking.entries()) {
    put_u32(out, entry.asn);
    put_f64(out, entry.score);
  }
}

// ---------------------------------------------------------------- reader

/// Bounds-checked cursor over one checksummed section: the checksum
/// already matched, so an overrun means the section STRUCTURE is wrong,
/// not that bytes went missing — every violation is kMalformedSection.
class SectionReader {
 public:
  SectionReader(std::string_view bytes, std::string_view section)
      : bytes_(bytes), section_(section) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  [[nodiscard]] std::uint16_t u16() {
    std::uint16_t lo = u8(), hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }

  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(u8()) << shift;
    }
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(u8()) << shift;
    }
    return v;
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// A count of records each at least `record_size` bytes; rejects
  /// counts the remaining bytes cannot possibly hold, so a corrupt
  /// count fails fast instead of driving a giant allocation.
  [[nodiscard]] std::uint64_t count(std::size_t record_size) {
    std::uint64_t n = u64();
    if (n > (bytes_.size() - pos_) / record_size) {
      fail("impossible record count " + std::to_string(n));
    }
    return n;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }

  [[noreturn]] void fail(const std::string& why) const {
    throw SnapshotDecodeError(SnapshotError::kMalformedSection,
                              std::string(section_) + ": " + why);
  }

 private:
  void need(std::size_t n) {
    if (bytes_.size() - pos_ < n) fail("section ends mid-record");
  }

  std::string_view bytes_;
  std::string_view section_;
  std::size_t pos_ = 0;
};

rank::Ranking read_ranking(SectionReader& in) {
  std::uint64_t n = in.count(12);  // u32 asn + f64 score
  std::vector<rank::ScoredAs> scores;
  scores.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    rank::ScoredAs entry;
    entry.asn = in.u32();
    entry.score = in.f64();
    scores.push_back(entry);
  }
  // Rankings are always produced by from_scores, whose (score desc, asn
  // asc) order is a strict total order per AS — re-sorting the already
  // sorted entries reproduces the identical sequence, bit for bit.
  return rank::Ranking::from_scores(std::move(scores));
}

core::ConfidenceTier read_tier(SectionReader& in) {
  std::uint8_t raw = in.u8();
  if (raw > static_cast<std::uint8_t>(core::ConfidenceTier::kInsufficient)) {
    in.fail("confidence tier " + std::to_string(raw) + " out of range");
  }
  return static_cast<core::ConfidenceTier>(raw);
}

geo::CountryCode read_country(SectionReader& in) {
  std::uint16_t raw = in.u16();
  char text[2] = {static_cast<char>(raw >> 8), static_cast<char>(raw & 0xff)};
  auto cc = geo::CountryCode::parse(std::string_view(text, 2));
  if (!cc) in.fail("country code 0x" + std::to_string(raw) + " not two letters");
  return *cc;
}

// -------------------------------------------------------------- sections

constexpr std::uint32_t section_tag(const char (&name)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(name[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[3])) << 24;
}

constexpr std::uint32_t kTagMeta = section_tag("META");
constexpr std::uint32_t kTagCountries = section_tag("CTRY");
constexpr std::uint32_t kTagHealth = section_tag("HLTH");

std::string encode_meta(const serve::SnapshotMeta& meta) {
  std::string out;
  put_u64(out, meta.id);
  put_u64(out, meta.created_unix);
  put_string(out, meta.label);
  return out;
}

void decode_meta(std::string_view bytes, serve::SnapshotMeta& meta) {
  SectionReader in{bytes, "META"};
  meta.id = in.u64();
  meta.created_unix = in.u64();
  meta.label = in.str();
  if (!in.exhausted()) in.fail("trailing bytes");
}

std::string encode_countries(const std::vector<core::CountryMetrics>& countries) {
  std::string out;
  put_u64(out, countries.size());
  for (const core::CountryMetrics& m : countries) {
    put_u16(out, m.country.raw());
    put_u8(out, static_cast<std::uint8_t>(m.confidence));
    put_u8(out, 0);  // pad
    put_f64(out, m.geo_consensus);
    put_u64(out, m.national_vps);
    put_u64(out, m.international_vps);
    put_u64(out, m.national_addresses);
    put_u64(out, m.international_addresses);
    put_ranking(out, m.cci);
    put_ranking(out, m.ccn);
    put_ranking(out, m.ahi);
    put_ranking(out, m.ahn);
  }
  return out;
}

void decode_countries(std::string_view bytes,
                      std::vector<core::CountryMetrics>& countries) {
  SectionReader in{bytes, "CTRY"};
  std::uint64_t n = in.count(44);  // fixed fields per country
  countries.reserve(n);
  geo::CountryCode previous;
  for (std::uint64_t i = 0; i < n; ++i) {
    core::CountryMetrics m;
    m.country = read_country(in);
    if (i > 0 && !(previous < m.country)) {
      in.fail("countries not strictly sorted");
    }
    previous = m.country;
    m.confidence = read_tier(in);
    (void)in.u8();  // pad
    m.geo_consensus = in.f64();
    m.national_vps = in.u64();
    m.international_vps = in.u64();
    m.national_addresses = in.u64();
    m.international_addresses = in.u64();
    m.cci = read_ranking(in);
    m.ccn = read_ranking(in);
    m.ahi = read_ranking(in);
    m.ahn = read_ranking(in);
    countries.push_back(std::move(m));
  }
  if (!in.exhausted()) in.fail("trailing bytes");
}

std::string encode_health(const robust::HealthReport& health) {
  std::string out;
  put_u64(out, health.policy.min_vps);
  put_f64(out, health.policy.min_geo_consensus);
  put_f64(out, health.ingest_drop_rate);
  put_f64(out, health.sanitize_drop_rate);
  put_u64(out, health.countries.size());
  for (const core::CountryHealth& h : health.countries) {
    put_u16(out, h.country.raw());
    put_u8(out, static_cast<std::uint8_t>(h.national_tier));
    put_u8(out, static_cast<std::uint8_t>(h.international_tier));
    put_u8(out, static_cast<std::uint8_t>(h.geo_tier));
    put_u8(out, static_cast<std::uint8_t>(h.overall));
    put_u64(out, h.national_vps);
    put_u64(out, h.international_vps);
    put_u64(out, h.accepted_prefixes);
    put_u64(out, h.geolocated_addresses);
    put_u64(out, h.no_consensus_prefixes);
    put_u64(out, h.no_consensus_addresses);
  }
  return out;
}

void decode_health(std::string_view bytes, robust::HealthReport& health) {
  SectionReader in{bytes, "HLTH"};
  health.policy.min_vps = in.u64();
  health.policy.min_geo_consensus = in.f64();
  health.ingest_drop_rate = in.f64();
  health.sanitize_drop_rate = in.f64();
  std::uint64_t n = in.count(54);  // bytes per country record
  health.countries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    core::CountryHealth h;
    h.country = read_country(in);
    h.national_tier = read_tier(in);
    h.international_tier = read_tier(in);
    h.geo_tier = read_tier(in);
    h.overall = read_tier(in);
    h.national_vps = in.u64();
    h.international_vps = in.u64();
    h.accepted_prefixes = in.u64();
    h.geolocated_addresses = in.u64();
    h.no_consensus_prefixes = in.u64();
    h.no_consensus_addresses = in.u64();
    health.countries.push_back(h);
  }
  if (!in.exhausted()) in.fail("trailing bytes");
}

struct SectionEntry {
  std::uint32_t tag = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

constexpr std::size_t kFixedHeaderSize = 8 + 4 + 4 + 8;  // magic, ver, n, csum
constexpr std::size_t kTableEntrySize = 4 + 4 + 8 + 8 + 8;

}  // namespace

std::string_view to_string(SnapshotError error) noexcept {
  switch (error) {
    case SnapshotError::kBadMagic: return "bad magic";
    case SnapshotError::kBadVersion: return "unsupported version";
    case SnapshotError::kTruncated: return "truncated";
    case SnapshotError::kHeaderChecksum: return "header checksum mismatch";
    case SnapshotError::kSectionChecksum: return "section checksum mismatch";
    case SnapshotError::kMissingSection: return "missing section";
    case SnapshotError::kMalformedSection: return "malformed section";
  }
  return "?";
}

SnapshotDecodeError::SnapshotDecodeError(SnapshotError error,
                                         const std::string& detail)
    : std::runtime_error("snapshot decode: " + std::string(to_string(error)) +
                         " (" + detail + ")"),
      error_(error) {}

std::uint64_t snapshot_checksum(std::string_view bytes) noexcept {
  // FNV-1a 64: simple, dependency-free, and byte-order independent.
  std::uint64_t hash = 14695981039346656037ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string encode_snapshot(const serve::Snapshot& snapshot) {
  const std::string sections[3] = {
      encode_meta(snapshot.meta),
      encode_countries(snapshot.countries),
      encode_health(snapshot.health),
  };
  const std::uint32_t tags[3] = {kTagMeta, kTagCountries, kTagHealth};

  const std::size_t header_size = kFixedHeaderSize + 3 * kTableEntrySize;
  std::string table;
  std::uint64_t offset = header_size;
  for (int i = 0; i < 3; ++i) {
    put_u32(table, tags[i]);
    put_u32(table, 0);  // reserved
    put_u64(table, offset);
    put_u64(table, sections[i].size());
    put_u64(table, snapshot_checksum(sections[i]));
    offset += sections[i].size();
  }

  std::string out;
  out.reserve(static_cast<std::size_t>(offset));
  out.append(kSnapshotMagic);
  put_u32(out, kSnapshotVersion);
  put_u32(out, 3);
  put_u64(out, snapshot_checksum(table));
  out += table;
  for (const std::string& section : sections) out += section;
  return out;
}

serve::Snapshot decode_snapshot(std::string_view bytes) {
  auto truncated = [&](const std::string& what) {
    throw SnapshotDecodeError(SnapshotError::kTruncated, what);
  };
  if (bytes.size() < kFixedHeaderSize) truncated("no room for the header");
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    throw SnapshotDecodeError(SnapshotError::kBadMagic,
                              "expected " + std::string(kSnapshotMagic));
  }
  SectionReader header{bytes.substr(8, 16), "header"};
  std::uint32_t version = header.u32();
  if (version == 0 || version > kSnapshotVersion) {
    throw SnapshotDecodeError(SnapshotError::kBadVersion,
                              "version " + std::to_string(version) +
                                  ", this reader speaks <= " +
                                  std::to_string(kSnapshotVersion));
  }
  std::uint32_t section_count = header.u32();
  std::uint64_t header_checksum = header.u64();
  if (section_count >
      (bytes.size() - kFixedHeaderSize) / kTableEntrySize) {
    truncated("section table larger than the file");
  }
  std::string_view table = bytes.substr(
      kFixedHeaderSize, static_cast<std::size_t>(section_count) * kTableEntrySize);
  if (snapshot_checksum(table) != header_checksum) {
    throw SnapshotDecodeError(SnapshotError::kHeaderChecksum,
                              "section table corrupted");
  }

  SectionReader table_reader{table, "section table"};
  serve::Snapshot snapshot;
  bool have_meta = false, have_countries = false, have_health = false;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    SectionEntry entry;
    entry.tag = table_reader.u32();
    (void)table_reader.u32();  // reserved
    entry.offset = table_reader.u64();
    entry.size = table_reader.u64();
    entry.checksum = table_reader.u64();
    if (entry.offset > bytes.size() || entry.size > bytes.size() - entry.offset) {
      truncated("section " + std::to_string(i) + " extends past end of file");
    }
    std::string_view payload = bytes.substr(
        static_cast<std::size_t>(entry.offset), static_cast<std::size_t>(entry.size));
    if (snapshot_checksum(payload) != entry.checksum) {
      throw SnapshotDecodeError(SnapshotError::kSectionChecksum,
                                "section " + std::to_string(i));
    }
    if (entry.tag == kTagMeta) {
      decode_meta(payload, snapshot.meta);
      have_meta = true;
    } else if (entry.tag == kTagCountries) {
      decode_countries(payload, snapshot.countries);
      have_countries = true;
    } else if (entry.tag == kTagHealth) {
      decode_health(payload, snapshot.health);
      have_health = true;
    }
    // Unknown tags: checksum-verified, then skipped (forward compat).
  }
  if (!have_meta || !have_countries || !have_health) {
    throw SnapshotDecodeError(
        SnapshotError::kMissingSection,
        !have_meta ? "META" : (!have_countries ? "CTRY" : "HLTH"));
  }
  return snapshot;
}

void write_snapshot(std::ostream& os, const serve::Snapshot& snapshot) {
  const std::string bytes = encode_snapshot(snapshot);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

serve::Snapshot read_snapshot(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return decode_snapshot(buf.str());
}

}  // namespace georank::io
