#include "bgp/update_stream.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/strings.hpp"

namespace georank::bgp {

void UpdateTextWriter::write(const UpdateMessage& update) {
  (*os_) << "BGP4MP|" << update.timestamp << '|'
         << (update.kind == UpdateMessage::Kind::kAnnounce ? 'A' : 'W') << '|'
         << format_ipv4(update.vp.ip) << '|' << update.vp.asn << '|'
         << update.prefix.to_string();
  if (update.kind == UpdateMessage::Kind::kAnnounce) {
    (*os_) << '|' << update.path.to_string() << "|IGP";
  }
  (*os_) << '\n';
}

void UpdateTextWriter::write_all(const std::vector<UpdateMessage>& updates) {
  for (const UpdateMessage& u : updates) write(u);
}

bool UpdateTextReader::parse_line(std::string_view line, UpdateMessage& out) {
  ++stats_.lines;
  std::string_view trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') {
    ++stats_.skipped_comments;
    return false;
  }
  std::array<std::string_view, detail::kMaxLineFields> fields;
  std::size_t field_count = detail::split_fields(trimmed, fields);

  ParseReason reason = ParseReason::kOk;
  detail::ParsedRoute route;
  auto kind = UpdateMessage::Kind::kAnnounce;
  if (field_count < 6) {
    reason = ParseReason::kBadFieldCount;
  } else if (fields[0] != "BGP4MP") {
    reason = ParseReason::kBadRecordType;
  } else if (fields[2] == "A") {
    // Announces carry a path: ...|<prefix>|<as-path>|IGP, 8 fields.
    if (field_count != 8) {
      reason = ParseReason::kBadFieldCount;
    } else {
      reason = detail::parse_route_fields({fields.data(), field_count},
                                          /*want_path=*/true, route);
    }
  } else if (fields[2] == "W") {
    // Withdraws are exactly 6 fields; one carrying a path is rejected
    // here rather than silently accepted or lumped into a generic bucket.
    if (field_count != 6) {
      reason = ParseReason::kBadFieldCount;
    } else {
      kind = UpdateMessage::Kind::kWithdraw;
      reason = detail::parse_route_fields({fields.data(), field_count},
                                          /*want_path=*/false, route);
    }
  } else {
    reason = ParseReason::kBadRecordType;
  }

  if (reason != ParseReason::kOk) {
    if (mode_ == ParseMode::kStrict) {
      throw MrtParseError{stats_.lines, reason, trimmed};
    }
    stats_.record_malformed(reason, stats_.lines, trimmed);
    return false;
  }
  out = UpdateMessage{kind, route.timestamp, route.vp, route.prefix,
                      std::move(route.path)};
  if (route.has_as_set) ++stats_.as_set;
  ++stats_.parsed;
  return true;
}

std::vector<UpdateMessage> UpdateTextReader::read_all(std::istream& is) {
  std::vector<UpdateMessage> out;
  std::string line;
  UpdateMessage update;
  while (std::getline(is, line)) {
    if (parse_line(line, update)) out.push_back(update);
  }
  return out;
}

std::string to_update_text(const std::vector<UpdateMessage>& updates) {
  std::ostringstream os;
  UpdateTextWriter writer{os};
  writer.write_all(updates);
  return os.str();
}

std::vector<UpdateMessage> from_update_text(std::string_view text,
                                            MrtParseStats* stats) {
  std::istringstream is{std::string(text)};
  UpdateTextReader reader;
  std::vector<UpdateMessage> out = reader.read_all(is);
  if (stats) *stats = reader.stats();
  return out;
}

void RibState::apply(const UpdateMessage& update) {
  Key key{update.vp, update.prefix};
  if (update.kind == UpdateMessage::Kind::kAnnounce) {
    routes_[key] = update.path;
  } else if (routes_.erase(key) == 0) {
    ++spurious_withdrawals_;
  }
}

void RibState::apply_all(const std::vector<UpdateMessage>& updates) {
  // this-> keeps the bare name from resolving to the unrelated
  // [[nodiscard]] free function scenario::apply in the lint model.
  for (const UpdateMessage& u : updates) this->apply(u);
}

void RibState::restore(const std::vector<RouteEntry>& entries,
                       std::size_t spurious) {
  routes_.clear();
  routes_.reserve(entries.size());
  for (const RouteEntry& e : entries) {
    routes_.emplace(Key{e.vp, e.prefix}, e.path);
  }
  spurious_withdrawals_ = spurious;
}

const AsPath* RibState::find(const VpId& vp, const Prefix& prefix) const {
  const auto it = routes_.find(Key{vp, prefix});
  return it == routes_.end() ? nullptr : &it->second;
}

RibSnapshot RibState::snapshot(int day) const {
  RibSnapshot snap;
  snap.day = day;
  snap.entries.reserve(routes_.size());
  for (const auto& [key, path] : routes_) {
    snap.entries.push_back(RouteEntry{key.vp, key.prefix, path});
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const RouteEntry& a, const RouteEntry& b) {
              if (a.vp != b.vp) return a.vp < b.vp;
              return a.prefix < b.prefix;
            });
  return snap;
}

std::vector<UpdateMessage> diff_snapshots(const RibSnapshot& from,
                                          const RibSnapshot& to,
                                          std::uint64_t timestamp) {
  struct Key {
    VpId vp;
    Prefix prefix;
    bool operator<(const Key& other) const {
      if (vp != other.vp) return vp < other.vp;
      return prefix < other.prefix;
    }
    bool operator==(const Key&) const = default;
  };
  std::vector<std::pair<Key, const AsPath*>> old_routes, new_routes;
  for (const RouteEntry& e : from.entries) {
    old_routes.push_back({Key{e.vp, e.prefix}, &e.path});
  }
  for (const RouteEntry& e : to.entries) {
    new_routes.push_back({Key{e.vp, e.prefix}, &e.path});
  }
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(old_routes.begin(), old_routes.end(), by_key);
  std::sort(new_routes.begin(), new_routes.end(), by_key);

  std::vector<UpdateMessage> out;
  std::size_t i = 0, j = 0;
  while (i < old_routes.size() || j < new_routes.size()) {
    bool take_old = j >= new_routes.size() ||
                    (i < old_routes.size() && old_routes[i].first < new_routes[j].first);
    bool take_new = i >= old_routes.size() ||
                    (j < new_routes.size() && new_routes[j].first < old_routes[i].first);
    if (take_old) {
      const Key& k = old_routes[i].first;
      out.push_back(UpdateMessage{UpdateMessage::Kind::kWithdraw, timestamp,
                                  k.vp, k.prefix, AsPath{}});
      ++i;
    } else if (take_new) {
      const Key& k = new_routes[j].first;
      out.push_back(UpdateMessage{UpdateMessage::Kind::kAnnounce, timestamp,
                                  k.vp, k.prefix, *new_routes[j].second});
      ++j;
    } else {
      // Same key in both: announce only when the path changed.
      if (!(*old_routes[i].second == *new_routes[j].second)) {
        const Key& k = new_routes[j].first;
        out.push_back(UpdateMessage{UpdateMessage::Kind::kAnnounce, timestamp,
                                    k.vp, k.prefix, *new_routes[j].second});
      }
      ++i;
      ++j;
    }
  }
  return out;
}

UpdateReplayError::UpdateReplayError(Kind kind, std::size_t index,
                                     std::uint64_t timestamp)
    : std::runtime_error{"update replay: " + std::string(to_string(kind)) +
                         " at index " + std::to_string(index) +
                         " (timestamp " + std::to_string(timestamp) + ")"},
      kind_(kind),
      index_(index),
      timestamp_(timestamp) {}

std::string_view to_string(UpdateReplayError::Kind kind) noexcept {
  switch (kind) {
    case UpdateReplayError::Kind::kOutOfOrder: return "out-of-order timestamp";
    case UpdateReplayError::Kind::kDayOutOfRange: return "day out of range";
    case UpdateReplayError::Kind::kBufferOverflow:
      return "reorder buffer overflow";
  }
  return "?";
}

RibCollection replay_to_collection(const std::vector<UpdateMessage>& updates,
                                   const ReplayOptions& options,
                                   ReplayStats* stats) {
  RibCollection out;
  RibState state;
  ReplayStats tally;
  int current_day = -1;
  std::uint64_t watermark = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const UpdateMessage& u = updates[i];
    int day = 0;
    if (detail::day_from_timestamp(u.timestamp, options.base_time,
                                   options.max_day, day) != ParseReason::kOk) {
      // Pre-base_time timestamps used to clamp to day 0, silently folding
      // clock-skewed updates into the first snapshot; now they follow the
      // same strict/tolerant contract as the text readers.
      if (options.mode == ParseMode::kStrict) {
        throw UpdateReplayError{UpdateReplayError::Kind::kDayOutOfRange, i,
                                u.timestamp};
      }
      ++tally.skipped_day_out_of_range;
      continue;
    }
    if (u.timestamp < watermark) {
      if (options.mode == ParseMode::kStrict) {
        throw UpdateReplayError{UpdateReplayError::Kind::kOutOfOrder, i,
                                u.timestamp};
      }
      ++tally.skipped_out_of_order;
      continue;
    }
    watermark = u.timestamp;
    // Accepted timestamps are non-decreasing, so the day only moves
    // forward; emit the finished day plus one snapshot per quiet day in
    // between, so every day in the span is represented.
    if (current_day >= 0 && day != current_day) {
      for (int d = current_day; d < day; ++d) {
        out.days.push_back(state.snapshot(d));
        ++tally.days_emitted;
        if (d > current_day) ++tally.quiet_days;
      }
    }
    current_day = day;
    state.apply(u);
    ++tally.applied;
  }
  if (current_day >= 0) {
    out.days.push_back(state.snapshot(current_day));
    ++tally.days_emitted;
  }
  tally.spurious_withdrawals = state.spurious_withdrawals();
  if (stats) *stats = tally;
  return out;
}

RibCollection replay_to_collection(const std::vector<UpdateMessage>& updates,
                                   std::uint64_t base_time) {
  return replay_to_collection(updates, ReplayOptions{.base_time = base_time});
}

std::vector<UpdateMessage> collection_to_updates(const RibCollection& collection,
                                                 std::uint64_t base_time) {
  std::vector<UpdateMessage> out;
  RibSnapshot previous;  // empty: day 0 becomes pure announcements
  for (const RibSnapshot& snap : collection.days) {
    std::uint64_t ts = base_time + static_cast<std::uint64_t>(snap.day) * 86400;
    auto updates = diff_snapshots(previous, snap, ts);
    out.insert(out.end(), updates.begin(), updates.end());
    previous = snap;
  }
  return out;
}

}  // namespace georank::bgp
