// RIB entries as consumed by the ranking pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/prefix.hpp"

namespace georank::bgp {

/// A vantage point is a BGP peer of a route collector, identified by the
/// peer's IP address and AS number (both appear in every announcement).
struct VpId {
  std::uint32_t ip = 0;
  Asn asn = kInvalidAsn;

  friend auto operator<=>(const VpId&, const VpId&) = default;
};

struct VpIdHash {
  [[nodiscard]] std::size_t operator()(const VpId& vp) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(vp.ip) << 32) | vp.asn;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

/// One best-path RIB entry: VP -> path -> prefix.
struct RouteEntry {
  VpId vp;
  Prefix prefix;
  AsPath path;

  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// One net change to a day's table, keyed by (VP, prefix): the path the
/// key held before the change and the path it holds after it. An absent
/// `old_path` means the key was not in the table; an absent `new_path`
/// means it was withdrawn. The live pipeline hands a burst to
/// core::Pipeline::apply_delta as these.
struct RouteDelta {
  VpId vp;
  Prefix prefix;
  std::optional<AsPath> old_path;
  std::optional<AsPath> new_path;

  friend bool operator==(const RouteDelta&, const RouteDelta&) = default;
};

/// A RIB snapshot from one (synthetic) dump day across all collectors.
struct RibSnapshot {
  int day = 0;  // 1..5 following the paper's "first five days of the month"
  std::vector<RouteEntry> entries;
};

/// Multi-day collection feeding the sanitizer (§3.1: 5 RIBs, prefixes must
/// appear in all of them).
struct RibCollection {
  std::vector<RibSnapshot> days;

  [[nodiscard]] std::size_t total_entries() const noexcept {
    std::size_t n = 0;
    for (const auto& d : days) n += d.entries.size();
    return n;
  }
};

}  // namespace georank::bgp
