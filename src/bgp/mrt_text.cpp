#include "bgp/mrt_text.hpp"

#include <ostream>
#include <sstream>

namespace georank::bgp {

namespace {
constexpr std::uint64_t kSecondsPerDay = 86400;
}

void MrtTextWriter::write_entry(const RouteEntry& entry, int day) {
  std::uint64_t ts = base_time_ + static_cast<std::uint64_t>(day) * kSecondsPerDay;
  (*os_) << "TABLE_DUMP2|" << ts << "|B|" << format_ipv4(entry.vp.ip) << '|'
         << entry.vp.asn << '|' << entry.prefix.to_string() << '|'
         << entry.path.to_string() << "|IGP\n";
}

void MrtTextWriter::write_snapshot(const RibSnapshot& snapshot) {
  for (const RouteEntry& e : snapshot.entries) write_entry(e, snapshot.day);
}

void MrtTextWriter::write_collection(const RibCollection& collection) {
  for (const RibSnapshot& s : collection.days) write_snapshot(s);
}

std::string to_mrt_text(const RibCollection& collection) {
  std::ostringstream os;
  MrtTextWriter writer{os};
  writer.write_collection(collection);
  return os.str();
}

}  // namespace georank::bgp
