// Text serialization of RIB snapshots in the one-line-per-entry format
// produced by `bgpdump -m` on MRT TABLE_DUMP2 files:
//
//   TABLE_DUMP2|<unixtime>|B|<peer-ip>|<peer-asn>|<prefix>|<as-path>|IGP
//
// The real pipeline ingests libbgpdump output; ours round-trips through the
// same shape so the parsing/plumbing layer is exercised identically.
// MrtTextWriter emits it; bgp::MrtStreamLoader (bgp/mrt_stream.hpp) reads
// it back, tolerant by default (malformed lines are counted per reason,
// not fatal — see bgp/line_parse.hpp) or strict (MrtParseError at the
// first malformed line).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "bgp/route.hpp"

namespace georank::bgp {

class MrtTextWriter {
 public:
  /// `base_time` stamps entries; each day d uses base_time + d*86400.
  explicit MrtTextWriter(std::ostream& os, std::uint64_t base_time = 1617235200)
      : os_(&os), base_time_(base_time) {}

  void write_entry(const RouteEntry& entry, int day);
  void write_snapshot(const RibSnapshot& snapshot);
  void write_collection(const RibCollection& collection);

 private:
  std::ostream* os_;
  std::uint64_t base_time_;
};

/// The whole collection as one text dump (tests and examples).
[[nodiscard]] std::string to_mrt_text(const RibCollection& collection);

}  // namespace georank::bgp
