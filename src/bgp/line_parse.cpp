#include "bgp/line_parse.hpp"

#include <array>
#include <utility>

#include "bgp/mrt_stream.hpp"
#include "bgp/prefix.hpp"
#include "util/strings.hpp"

namespace georank::bgp {

namespace {
constexpr std::uint64_t kSecondsPerDay = 86400;
}

std::string_view to_string(ParseReason reason) noexcept {
  switch (reason) {
    case ParseReason::kOk: return "ok";
    case ParseReason::kBadFieldCount: return "bad field count";
    case ParseReason::kBadRecordType: return "bad record type";
    case ParseReason::kBadTimestamp: return "bad timestamp";
    case ParseReason::kBadIp: return "bad ip";
    case ParseReason::kBadAsn: return "bad asn";
    case ParseReason::kBadPrefix: return "bad prefix";
    case ParseReason::kBadPath: return "bad path";
    case ParseReason::kEmptyPath: return "empty path";
    case ParseReason::kDayOutOfRange: return "day out of range";
    case ParseReason::kAsSet: return "as-set";
  }
  return "?";
}

namespace {
std::string format_parse_error(std::size_t line_number, ParseReason reason,
                               std::string_view line) {
  std::string out = "malformed line ";
  out += std::to_string(line_number);
  out += " (";
  out += to_string(reason);
  out += "): ";
  out += line;
  return out;
}
}  // namespace

MrtParseError::MrtParseError(std::size_t line_number, ParseReason reason,
                             std::string_view line)
    : std::runtime_error(format_parse_error(line_number, reason, line)),
      line_number_(line_number),
      reason_(reason) {}

void MrtParseStats::record_malformed(ParseReason reason,
                                     std::size_t line_number,
                                     std::string_view line) {
  ++malformed;
  switch (reason) {
    case ParseReason::kBadFieldCount: ++bad_field_count; break;
    case ParseReason::kBadRecordType: ++bad_record_type; break;
    case ParseReason::kBadTimestamp: ++bad_timestamp; break;
    case ParseReason::kBadIp: ++bad_ip; break;
    case ParseReason::kBadAsn: ++bad_asn; break;
    case ParseReason::kBadPrefix: ++bad_prefix; break;
    case ParseReason::kBadPath: ++bad_path; break;
    case ParseReason::kEmptyPath: ++empty_path; break;
    case ParseReason::kDayOutOfRange: ++day_out_of_range; break;
    case ParseReason::kOk:
    case ParseReason::kAsSet: break;  // not malformed reasons
  }
  if (samples.size() < kMaxSamples) {
    samples.push_back(Sample{line_number, reason, std::string(line)});
  }
}

void MrtParseStats::merge(const MrtParseStats& other, std::size_t line_offset) {
  lines += other.lines;
  parsed += other.parsed;
  malformed += other.malformed;
  skipped_comments += other.skipped_comments;
  bad_field_count += other.bad_field_count;
  bad_record_type += other.bad_record_type;
  bad_timestamp += other.bad_timestamp;
  bad_ip += other.bad_ip;
  bad_asn += other.bad_asn;
  bad_prefix += other.bad_prefix;
  bad_path += other.bad_path;
  empty_path += other.empty_path;
  day_out_of_range += other.day_out_of_range;
  as_set += other.as_set;
  bytes += other.bytes;
  for (const Sample& s : other.samples) {
    if (samples.size() >= kMaxSamples) break;
    samples.push_back(Sample{s.line_number + line_offset, s.reason, s.text});
  }
}

std::size_t MrtParseStats::reason_count(ParseReason reason) const noexcept {
  switch (reason) {
    case ParseReason::kOk: return parsed;
    case ParseReason::kBadFieldCount: return bad_field_count;
    case ParseReason::kBadRecordType: return bad_record_type;
    case ParseReason::kBadTimestamp: return bad_timestamp;
    case ParseReason::kBadIp: return bad_ip;
    case ParseReason::kBadAsn: return bad_asn;
    case ParseReason::kBadPrefix: return bad_prefix;
    case ParseReason::kBadPath: return bad_path;
    case ParseReason::kEmptyPath: return empty_path;
    case ParseReason::kDayOutOfRange: return day_out_of_range;
    case ParseReason::kAsSet: return as_set;
  }
  return 0;
}

double MrtParseStats::lines_per_second() const noexcept {
  return elapsed_seconds > 0.0 ? static_cast<double>(lines) / elapsed_seconds
                               : 0.0;
}

double MrtParseStats::mbytes_per_second() const noexcept {
  return elapsed_seconds > 0.0
             ? static_cast<double>(bytes) / (1e6 * elapsed_seconds)
             : 0.0;
}

namespace detail {

std::size_t split_fields(std::string_view line,
                         std::span<std::string_view> out) noexcept {
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    std::size_t bar = line.find('|', start);
    if (count == kMaxLineFields) return kMaxLineFields + 1;
    if (bar == std::string_view::npos) {
      out[count++] = line.substr(start);
      return count;
    }
    out[count++] = line.substr(start, bar - start);
    start = bar + 1;
  }
}

ParseReason parse_route_fields(std::span<const std::string_view> fields,
                               bool want_path, ParsedRoute& out) {
  std::uint64_t ts = 0;
  if (!parse_decimal(fields[1], ts)) return ParseReason::kBadTimestamp;
  auto ip = parse_ipv4(fields[3]);
  if (!ip) return ParseReason::kBadIp;
  Asn asn = 0;
  if (!parse_decimal(fields[4], asn) || asn == kInvalidAsn) {
    return ParseReason::kBadAsn;
  }
  auto prefix = Prefix::parse(fields[5]);
  if (!prefix) return ParseReason::kBadPrefix;
  if (want_path) {
    auto path = AsPath::parse(fields[6]);
    if (!path) return ParseReason::kBadPath;
    if (path->empty()) return ParseReason::kEmptyPath;
    out.has_as_set = path->has_as_set();
    out.path = std::move(*path);
  }
  out.timestamp = ts;
  out.vp = VpId{*ip, asn};
  out.prefix = *prefix;
  return ParseReason::kOk;
}

ParseReason day_from_timestamp(std::uint64_t timestamp, std::uint64_t base_time,
                               int max_day, int& day_out) noexcept {
  if (timestamp < base_time) return ParseReason::kDayOutOfRange;
  std::uint64_t day = (timestamp - base_time) / kSecondsPerDay;
  if (day >= static_cast<std::uint64_t>(max_day)) {
    return ParseReason::kDayOutOfRange;
  }
  day_out = static_cast<int>(day);
  return ParseReason::kOk;
}

}  // namespace detail

bool parse_line(std::string_view line, const MrtStreamOptions& options,
                MrtParseStats& stats, RouteEntry& out, int& day_out) {
  ++stats.lines;
  std::string_view trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') {
    ++stats.skipped_comments;
    return false;
  }
  std::array<std::string_view, detail::kMaxLineFields> fields;
  std::size_t field_count = detail::split_fields(trimmed, fields);

  ParseReason reason = ParseReason::kOk;
  detail::ParsedRoute route;
  int day = 0;
  if (field_count != 8) {
    reason = ParseReason::kBadFieldCount;
  } else if (fields[0] != "TABLE_DUMP2" || fields[2] != "B") {
    reason = ParseReason::kBadRecordType;
  } else {
    reason = detail::parse_route_fields({fields.data(), field_count},
                                        /*want_path=*/true, route);
  }
  if (reason == ParseReason::kOk) {
    reason = detail::day_from_timestamp(route.timestamp, options.base_time,
                                        options.max_day, day);
  }
  if (reason != ParseReason::kOk) {
    if (options.mode == ParseMode::kStrict) {
      throw MrtParseError{stats.lines, reason, trimmed};
    }
    stats.record_malformed(reason, stats.lines, trimmed);
    return false;
  }
  out.vp = route.vp;
  out.prefix = route.prefix;
  out.path = std::move(route.path);
  day_out = day;
  if (route.has_as_set) ++stats.as_set;
  ++stats.parsed;
  return true;
}

}  // namespace georank::bgp
