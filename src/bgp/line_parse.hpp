// The shared parse core of the text-ingest layer.
//
// Both bgpdump-style readers (bgp::parse_line below, behind
// bgp::MrtStreamLoader, for TABLE_DUMP2 RIB dumps; bgp::UpdateTextReader
// for BGP4MP update archives) decode the same pipe-delimited field
// layout:
//
//   <record-type>|<unix-time>|<marker>|<peer-ip>|<peer-asn>|<prefix>[|<as-path>|IGP]
//
// This header holds everything they share: the per-reason diagnostic
// vocabulary (ParseReason), the strict/tolerant mode switch, the
// structured MrtParseStats record, and the field-decoding core itself.
// Real collector feeds are full of garbage — truncated lines, AS_SETs,
// clock skew, mixed-day archives — and downstream rankings are sensitive
// to what the ingest layer silently drops, so every drop is attributed
// to a concrete reason and the first few offending lines are retained
// for auditing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bgp/route.hpp"
#include "util/strings.hpp"

namespace georank::bgp {

/// Why a line was dropped — or, for kAsSet, a non-fatal oddity on a line
/// that still parsed. kOk is first so a zero-initialized reason reads as
/// success.
enum class ParseReason : std::uint8_t {
  kOk = 0,
  kBadFieldCount,  // wrong number of '|'-separated fields
  kBadRecordType,  // not TABLE_DUMP2/BGP4MP, or an unknown A/W/B marker
  kBadTimestamp,   // non-numeric unix time
  kBadIp,          // unparsable peer IP
  kBadAsn,         // unparsable, overflowing, or AS0 peer ASN
  kBadPrefix,      // unparsable CIDR prefix
  kBadPath,        // unparsable AS-path token
  kEmptyPath,      // announce with an empty AS path
  kDayOutOfRange,  // timestamp before base_time or past the day horizon
  kAsSet,          // informational: AS_SET tokens flattened, line parsed
};
inline constexpr std::size_t kParseReasonCount = 11;

[[nodiscard]] std::string_view to_string(ParseReason reason) noexcept;

/// kTolerant counts-and-skips malformed lines (the historical behavior);
/// kStrict throws MrtParseError at the first one.
enum class ParseMode : std::uint8_t { kTolerant, kStrict };

/// Thrown by strict-mode readers/loaders at the first malformed line.
/// what() carries the 1-based line number, the reason, and the line.
class MrtParseError : public std::runtime_error {
 public:
  MrtParseError(std::size_t line_number, ParseReason reason,
                std::string_view line);

  [[nodiscard]] std::size_t line_number() const noexcept { return line_number_; }
  [[nodiscard]] ParseReason reason() const noexcept { return reason_; }

 private:
  std::size_t line_number_;
  ParseReason reason_;
};

/// Structured ingest diagnostics exposed by every text reader and by
/// MrtStreamLoader. Invariant after any complete read:
///   lines == parsed + malformed + skipped_comments
/// and `malformed` equals the sum of the per-reason counters (as_set is
/// informational: those lines land in `parsed`).
struct MrtParseStats {
  std::size_t lines = 0;
  std::size_t parsed = 0;
  std::size_t malformed = 0;
  std::size_t skipped_comments = 0;

  // Per-reason breakdown of `malformed`.
  std::size_t bad_field_count = 0;
  std::size_t bad_record_type = 0;
  std::size_t bad_timestamp = 0;
  std::size_t bad_ip = 0;
  std::size_t bad_asn = 0;
  std::size_t bad_prefix = 0;
  std::size_t bad_path = 0;
  std::size_t empty_path = 0;
  std::size_t day_out_of_range = 0;
  /// Lines whose AS path carried AS_SET syntax, flattened and PARSED
  /// (counted in `parsed`, not `malformed`); the sanitizer drops them.
  std::size_t as_set = 0;

  /// One retained offending line (1-based number within the input).
  struct Sample {
    std::size_t line_number = 0;
    ParseReason reason = ParseReason::kOk;
    std::string text;
  };
  /// At most this many samples are kept, in input order.
  static constexpr std::size_t kMaxSamples = 8;
  std::vector<Sample> samples;

  // Throughput accounting (filled by MrtStreamLoader; readers leave 0).
  std::uint64_t bytes = 0;
  double elapsed_seconds = 0.0;

  /// Counts a malformed line under `reason` and retains it as a sample
  /// while there is room.
  void record_malformed(ParseReason reason, std::size_t line_number,
                        std::string_view line);

  /// Folds a chunk's stats into this one (counters add; samples merge in
  /// call order with their line numbers shifted by `line_offset`).
  void merge(const MrtParseStats& other, std::size_t line_offset = 0);

  /// The per-reason counter value (kOk -> parsed, kAsSet -> as_set).
  [[nodiscard]] std::size_t reason_count(ParseReason reason) const noexcept;

  [[nodiscard]] double lines_per_second() const noexcept;
  [[nodiscard]] double mbytes_per_second() const noexcept;
};

struct MrtStreamOptions;  // bgp/mrt_stream.hpp

/// Parses one bgpdump TABLE_DUMP2 line into `out`; returns false (and
/// leaves `out` untouched) for comments/blank/malformed lines. Every
/// call counts one line into `stats`, whose running `lines` total is the
/// 1-based line number a malformed line is recorded (or thrown) under.
/// `day_out` receives the day index recovered from the timestamp against
/// options.base_time / options.max_day. When options.mode is kStrict,
/// malformed lines throw MrtParseError instead of returning false.
[[nodiscard]] bool parse_line(std::string_view line,
                              const MrtStreamOptions& options,
                              MrtParseStats& stats, RouteEntry& out,
                              int& day_out);

namespace detail {

/// More fields than any bgpdump record type uses; split_fields reports
/// kMaxLineFields + 1 for anything longer (always a field-count error).
inline constexpr std::size_t kMaxLineFields = 10;

/// '|'-splits `line` into `out` (size >= kMaxLineFields) without
/// allocating. Returns the field count, or kMaxLineFields + 1 when the
/// line has more fields than that.
[[nodiscard]] std::size_t split_fields(std::string_view line,
                                       std::span<std::string_view> out) noexcept;

/// Whole-string unsigned decimal parse, inlined for the per-line ingest
/// hot loop. Accept/reject semantics match util::parse_int (from_chars):
/// digits only, whole string consumed, value must fit UInt. Leading
/// zeros don't count toward the digit budget, and near-limit digit
/// counts defer to from_chars so overflow handling stays exact.
template <typename UInt>
[[nodiscard]] inline bool parse_decimal(std::string_view s,
                                        UInt& out) noexcept {
  static_assert(std::is_unsigned_v<UInt> && sizeof(UInt) <= 8);
  constexpr int kSafeDigits = sizeof(UInt) == 8 ? 19 : 9;
  if (s.empty()) return false;
  std::uint64_t value = 0;
  int digits = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (value != 0 || c != '0') {
      if (++digits > kSafeDigits) {
        auto slow = util::parse_int<UInt>(s);  // exact overflow semantics
        if (!slow) return false;
        out = *slow;
        return true;
      }
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > std::numeric_limits<UInt>::max()) return false;
  out = static_cast<UInt>(value);
  return true;
}

struct ParsedRoute {
  std::uint64_t timestamp = 0;
  VpId vp;
  Prefix prefix;
  AsPath path;  // untouched when want_path is false
  bool has_as_set = false;
};

/// Decodes the fields both record types share — [1] timestamp, [3]
/// peer-ip, [4] peer-asn, [5] prefix and, when `want_path`, [6] as-path —
/// returning kOk or the reason of the FIRST failing field (in field
/// order, so classification is deterministic).
[[nodiscard]] ParseReason parse_route_fields(
    std::span<const std::string_view> fields, bool want_path, ParsedRoute& out);

/// Maps a timestamp onto a day index, enforcing the sane-day horizon:
/// accepted timestamps lie in [base_time, base_time + max_day * 86400).
/// Anything earlier is clock skew (and would wrap a uint64_t subtraction
/// into a bogus huge day); anything later is a mixed-up archive.
[[nodiscard]] ParseReason day_from_timestamp(std::uint64_t timestamp,
                                             std::uint64_t base_time,
                                             int max_day, int& day_out) noexcept;

}  // namespace detail

}  // namespace georank::bgp
