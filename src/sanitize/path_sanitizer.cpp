#include "sanitize/path_sanitizer.hpp"

#include <algorithm>

#include "sanitize/filter_detail.hpp"

namespace georank::sanitize {

std::string_view to_string(FilterReason reason) noexcept {
  switch (reason) {
    case FilterReason::kAccepted: return "accepted";
    case FilterReason::kUnstable: return "unstable";
    case FilterReason::kUnallocated: return "unallocated";
    case FilterReason::kLoop: return "loop";
    case FilterReason::kPoisoned: return "poisoned";
    case FilterReason::kVpNoLocation: return "VP no location";
    case FilterReason::kCoveredPrefix: return "covered prefix";
    case FilterReason::kPrefixNoLocation: return "prefix no location";
    case FilterReason::kAsSet: return "as-set";
  }
  return "?";
}

bool is_poisoned(const bgp::AsPath& path, std::span<const bgp::Asn> clique) {
  if (clique.empty()) return false;
  auto in_clique = [&](bgp::Asn a) {
    return std::find(clique.begin(), clique.end(), a) != clique.end();
  };
  // Poisoned: two clique ASes separated by at least one non-clique AS.
  std::ptrdiff_t last_clique = -1;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!in_clique(path[i])) continue;
    if (last_clique >= 0 && static_cast<std::size_t>(last_clique) + 1 < i) {
      return true;
    }
    last_clique = static_cast<std::ptrdiff_t>(i);
  }
  return false;
}

PathSanitizer::PathSanitizer(const geo::GeoDatabase& geo_db,
                             const geo::VpGeolocator& vps,
                             const AsnRegistry& registry, SanitizerOptions options)
    : geo_db_(&geo_db), vps_(&vps), registry_(&registry), options_(std::move(options)) {}

SanitizeResult PathSanitizer::run(const bgp::RibCollection& ribs) const {
  return detail::run_collection(ribs, *geo_db_, *vps_, *registry_, options_);
}

}  // namespace georank::sanitize
