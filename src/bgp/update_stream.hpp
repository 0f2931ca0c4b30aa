// BGP UPDATE streams: the incremental counterpart of RIB snapshots.
//
// RouteViews/RIS publish both table dumps and update archives; IHR's
// hegemony pipeline consumes the latter. This module provides:
//
//   * UpdateMessage (announce/withdraw) with the bgpdump -m text format:
//       BGP4MP|<ts>|A|<peer-ip>|<peer-asn>|<prefix>|<as-path>|IGP
//       BGP4MP|<ts>|W|<peer-ip>|<peer-asn>|<prefix>
//   * RibState: a live per-(VP, prefix) best-path table that applies
//     updates and snapshots into the RibSnapshot the sanitizer consumes;
//   * diffing: turn consecutive snapshots into the minimal update stream
//     that replays the transition (used to synthesize update archives
//     from generated worlds, and tested as an exact inverse of replay).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bgp/mrt_text.hpp"
#include "bgp/route.hpp"

namespace georank::bgp {

struct UpdateMessage {
  enum class Kind : std::uint8_t { kAnnounce, kWithdraw };

  Kind kind = Kind::kAnnounce;
  std::uint64_t timestamp = 0;
  VpId vp;
  Prefix prefix;
  AsPath path;  // empty for withdrawals

  friend bool operator==(const UpdateMessage&, const UpdateMessage&) = default;
};

class UpdateTextWriter {
 public:
  explicit UpdateTextWriter(std::ostream& os) : os_(&os) {}
  void write(const UpdateMessage& update);
  void write_all(const std::vector<UpdateMessage>& updates);

 private:
  std::ostream* os_;
};

class UpdateTextReader {
 public:
  UpdateTextReader() = default;
  explicit UpdateTextReader(ParseMode mode) : mode_(mode) {}

  /// False for comments/blank/malformed lines (counted per reason in
  /// stats()). Withdraws must be exactly 6 fields — a withdraw carrying
  /// a path is rejected as bad_field_count — and announces exactly 8.
  /// In strict mode malformed lines throw MrtParseError instead.
  [[nodiscard]] bool parse_line(std::string_view line, UpdateMessage& out);
  [[nodiscard]] std::vector<UpdateMessage> read_all(std::istream& is);
  [[nodiscard]] const MrtParseStats& stats() const noexcept { return stats_; }

 private:
  MrtParseStats stats_;
  ParseMode mode_ = ParseMode::kTolerant;
};

[[nodiscard]] std::string to_update_text(const std::vector<UpdateMessage>& updates);
[[nodiscard]] std::vector<UpdateMessage> from_update_text(
    std::string_view text, MrtParseStats* stats = nullptr);

/// Live best-path table; the thing a collector maintains per peer.
class RibState {
 public:
  /// Announce replaces, withdraw erases; withdrawals of unknown routes
  /// are counted but harmless (they happen constantly in real feeds).
  void apply(const UpdateMessage& update);
  void apply_all(const std::vector<UpdateMessage>& updates);

  [[nodiscard]] std::size_t route_count() const noexcept { return routes_.size(); }
  [[nodiscard]] std::size_t spurious_withdrawals() const noexcept {
    return spurious_withdrawals_;
  }

  /// The path `vp` holds for `prefix`, or nullptr when it has none.
  [[nodiscard]] const AsPath* find(const VpId& vp, const Prefix& prefix) const;

  /// Current table as a snapshot, entries in (VP, prefix) order.
  [[nodiscard]] RibSnapshot snapshot(int day) const;

  /// Replaces the table with `entries` (as produced by snapshot()) and
  /// the spurious-withdrawal count, discarding any current state. Used
  /// by live checkpoint recovery to restore an exact table image.
  void restore(const std::vector<RouteEntry>& entries, std::size_t spurious);

 private:
  struct Key {
    VpId vp;
    Prefix prefix;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = VpIdHash{}(k.vp);
      return h ^ (PrefixHash{}(k.prefix) + 0x9e3779b9u + (h << 6) + (h >> 2));
    }
  };
  std::unordered_map<Key, AsPath, KeyHash> routes_;
  std::size_t spurious_withdrawals_ = 0;
};

/// Minimal updates replaying `from` -> `to`: announces for new or changed
/// routes, withdrawals for vanished ones. Deterministic order.
[[nodiscard]] std::vector<UpdateMessage> diff_snapshots(const RibSnapshot& from,
                                                        const RibSnapshot& to,
                                                        std::uint64_t timestamp);

/// A whole collection as one update archive: day 0 dumped as announces,
/// later days as diffs. Replaying through RibState reproduces every
/// snapshot exactly (tested property), including quiet days, EXCEPT
/// trailing quiet days: a final day identical to its predecessor diffs to
/// zero updates, so the archive carries no evidence the day existed.
[[nodiscard]] std::vector<UpdateMessage> collection_to_updates(
    const RibCollection& collection, std::uint64_t base_time = 1617235200);

/// How replay_to_collection treats stream irregularities. Mirrors
/// MrtReaderOptions: same base_time epoch, same ParseMode semantics
/// (strict throws, tolerant counts and skips), same day horizon.
struct ReplayOptions {
  std::uint64_t base_time = 1617235200;
  ParseMode mode = ParseMode::kTolerant;
  /// Timestamps at or past base_time + max_day * 86400 (or before
  /// base_time) are day-out-of-range.
  int max_day = 366;
};

/// Diagnostics from one replay pass.
struct ReplayStats {
  std::size_t applied = 0;                   // updates applied to the table
  std::size_t skipped_out_of_order = 0;      // tolerant-mode ordering drops
  std::size_t skipped_day_out_of_range = 0;  // tolerant-mode horizon drops
  std::size_t spurious_withdrawals = 0;      // withdrawals of unknown routes
  std::size_t days_emitted = 0;              // snapshots in the result
  std::size_t quiet_days = 0;                // emitted days with no updates

  friend bool operator==(const ReplayStats&, const ReplayStats&) = default;
};

/// Thrown by strict-mode replay at the first update that violates the
/// stream contract; carries the offending update's index and timestamp.
class UpdateReplayError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kOutOfOrder,      // timestamp went backwards
    kDayOutOfRange,   // timestamp before base_time or past the horizon
    kBufferOverflow,  // live reorder buffer exceeded max_pending (shed policy)
  };

  UpdateReplayError(Kind kind, std::size_t index, std::uint64_t timestamp);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// 0-based index of the offending update within the input vector.
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] std::uint64_t timestamp() const noexcept { return timestamp_; }

 private:
  Kind kind_;
  std::size_t index_;
  std::uint64_t timestamp_;
};

[[nodiscard]] std::string_view to_string(UpdateReplayError::Kind kind) noexcept;

/// The inverse of collection_to_updates: replay an update archive into
/// daily snapshots. Updates must be timestamp-ordered (non-decreasing);
/// the day index is (ts - base_time) / 86400, a snapshot is emitted for
/// EVERY day from the first to the last day seen — quiet days repeat the
/// previous table — and the contract violations (out-of-order timestamp,
/// pre-base_time or past-horizon timestamp) follow options.mode: strict
/// throws UpdateReplayError, tolerant counts the update in `stats` and
/// skips it.
[[nodiscard]] RibCollection replay_to_collection(
    const std::vector<UpdateMessage>& updates, const ReplayOptions& options,
    ReplayStats* stats = nullptr);

/// Tolerant replay with default options (compatibility overload).
[[nodiscard]] RibCollection replay_to_collection(
    const std::vector<UpdateMessage>& updates,
    std::uint64_t base_time = 1617235200);

}  // namespace georank::bgp
