#include "core/views.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "bgp/prefix_trie.hpp"

namespace georank::core {

CountryView::CountryView(const sanitize::PathColumns& cols,
                         std::vector<std::uint32_t> indices,
                         geo::CountryCode view_country, ViewKind view_kind)
    : country(view_country),
      kind(view_kind),
      cols_(cols),
      indices_storage_(std::move(indices)),
      indices_(indices_storage_) {
  rebind();
}

CountryView::CountryView(const sanitize::PathColumns& cols,
                         std::span<const std::uint32_t> indices,
                         geo::CountryCode view_country, ViewKind view_kind)
    : country(view_country), kind(view_kind), cols_(cols), indices_(indices) {
  rebind();
}

struct CountryView::OwnedRows {
  std::vector<bgp::VpId> vp;
  std::vector<geo::CountryCode> vp_country;
  std::vector<bgp::Prefix> prefix;
  std::vector<geo::CountryCode> prefix_country;
  std::vector<std::uint64_t> weight;
  std::vector<sanitize::PathHandle> handle;
  std::vector<bgp::Asn> arena;

  explicit OwnedRows(std::span<const sanitize::SanitizedPath> paths) {
    for (const sanitize::SanitizedPath& sp : paths) {
      vp.push_back(sp.vp);
      vp_country.push_back(sp.vp_country);
      prefix.push_back(sp.prefix);
      prefix_country.push_back(sp.prefix_country);
      weight.push_back(sp.weight);
      const std::span<const bgp::Asn> hops = sp.path.hops();
      handle.push_back({static_cast<std::uint32_t>(arena.size()),
                        static_cast<std::uint32_t>(hops.size())});
      arena.insert(arena.end(), hops.begin(), hops.end());
    }
  }

  [[nodiscard]] sanitize::PathColumns columns() const noexcept {
    return {vp.data(),     vp_country.data(), prefix.data(),
            prefix_country.data(), weight.data(), handle.data(),
            arena.data()};
  }
};

void CountryView::rebind() noexcept {
  paths_ = sanitize::PathsView{cols_, indices_};
}

CountryView::CountryView(const CountryView& other)
    : country(other.country),
      kind(other.kind),
      cols_(other.cols_),
      owned_(other.owned_),
      indices_storage_(other.indices_storage_) {
  // A copy of a borrowed-index view stays borrowed (the lender outlives
  // both); a copy of an owned-index view must point at its OWN storage.
  indices_ = other.indices_storage_.empty() ? other.indices_
                                            : std::span<const std::uint32_t>(
                                                  indices_storage_);
  rebind();
}

CountryView::CountryView(CountryView&& other) noexcept
    : country(other.country),
      kind(other.kind),
      cols_(other.cols_),
      owned_(std::move(other.owned_)),
      indices_storage_(std::move(other.indices_storage_)) {
  indices_ = indices_storage_.empty() ? other.indices_
                                      : std::span<const std::uint32_t>(
                                            indices_storage_);
  rebind();
}

CountryView& CountryView::operator=(const CountryView& other) {
  if (this != &other) {
    country = other.country;
    kind = other.kind;
    cols_ = other.cols_;
    owned_ = other.owned_;
    indices_storage_ = other.indices_storage_;
    indices_ = other.indices_storage_.empty()
                   ? other.indices_
                   : std::span<const std::uint32_t>(indices_storage_);
    rebind();
  }
  return *this;
}

CountryView& CountryView::operator=(CountryView&& other) noexcept {
  if (this != &other) {
    country = other.country;
    kind = other.kind;
    cols_ = other.cols_;
    owned_ = std::move(other.owned_);
    indices_storage_ = std::move(other.indices_storage_);
    indices_ = indices_storage_.empty()
                   ? other.indices_
                   : std::span<const std::uint32_t>(indices_storage_);
    rebind();
  }
  return *this;
}

CountryView CountryView::from_paths(
    const std::vector<sanitize::SanitizedPath>& paths, geo::CountryCode country,
    ViewKind kind) {
  auto rows = std::make_shared<const OwnedRows>(paths);
  std::vector<std::uint32_t> indices(paths.size());
  std::iota(indices.begin(), indices.end(), std::uint32_t{0});
  CountryView out{rows->columns(), std::move(indices), country, kind};
  out.owned_ = std::move(rows);
  return out;
}

sanitize::PathRecord CountryView::operator[](std::size_t i) const {
  return paths_[i];
}

sanitize::PathsView CountryView::paths() const noexcept { return paths_; }

std::vector<bgp::VpId> CountryView::vps() const {
  std::unordered_set<bgp::VpId, bgp::VpIdHash> seen;
  std::vector<bgp::VpId> out;
  for (std::uint32_t i : indices_) {
    if (seen.insert(cols_.vp[i]).second) out.push_back(cols_.vp[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t CountryView::vp_count() const {
  std::unordered_set<bgp::VpId, bgp::VpIdHash> seen;
  for (std::uint32_t i : indices_) seen.insert(cols_.vp[i]);
  return seen.size();
}

std::uint64_t CountryView::address_weight() const {
  std::unordered_set<bgp::Prefix, bgp::PrefixHash> seen;
  std::uint64_t total = 0;
  for (std::uint32_t i : indices_) {
    if (seen.insert(cols_.prefix[i]).second) total += cols_.weight[i];
  }
  return total;
}

CountryView CountryView::restricted_to(std::span<const bgp::VpId> keep) const {
  std::unordered_set<bgp::VpId, bgp::VpIdHash> keep_set(keep.begin(),
                                                        keep.end());
  std::vector<std::uint32_t> indices;
  for (std::uint32_t i : indices_) {
    if (keep_set.contains(cols_.vp[i])) indices.push_back(i);
  }
  CountryView out;
  out.country = country;
  out.kind = kind;
  out.cols_ = cols_;
  out.owned_ = owned_;
  out.indices_storage_ = std::move(indices);
  out.indices_ = out.indices_storage_;
  out.rebind();
  return out;
}

CountryView CountryView::without_vp(bgp::VpId vp) const {
  std::vector<std::uint32_t> indices;
  indices.reserve(indices_.size());
  for (std::uint32_t i : indices_) {
    if (!(cols_.vp[i] == vp)) indices.push_back(i);
  }
  CountryView out;
  out.country = country;
  out.kind = kind;
  out.cols_ = cols_;
  out.owned_ = owned_;
  out.indices_storage_ = std::move(indices);
  out.indices_ = out.indices_storage_;
  out.rebind();
  return out;
}

namespace {

CountryView filtered_view(std::span<const sanitize::SanitizedPath> all,
                          geo::CountryCode country, ViewKind kind,
                          bool (*match)(const sanitize::SanitizedPath&,
                                        geo::CountryCode)) {
  std::vector<sanitize::SanitizedPath> subset;
  for (const sanitize::SanitizedPath& sp : all) {
    if (match(sp, country)) subset.push_back(sp);
  }
  return CountryView::from_paths(subset, country, kind);
}

}  // namespace

CountryView ViewBuilder::national(std::span<const sanitize::SanitizedPath> all,
                                  geo::CountryCode country) {
  return filtered_view(all, country, ViewKind::kNational,
                       [](const sanitize::SanitizedPath& sp,
                          geo::CountryCode cc) {
                         return sp.prefix_country == cc && sp.vp_country == cc;
                       });
}

CountryView ViewBuilder::international(
    std::span<const sanitize::SanitizedPath> all, geo::CountryCode country) {
  return filtered_view(all, country, ViewKind::kInternational,
                       [](const sanitize::SanitizedPath& sp,
                          geo::CountryCode cc) {
                         return sp.prefix_country == cc &&
                                sp.vp_country.valid() && sp.vp_country != cc;
                       });
}

CountryView ViewBuilder::outbound(std::span<const sanitize::SanitizedPath> all,
                                  geo::CountryCode country) {
  return filtered_view(all, country, ViewKind::kOutbound,
                       [](const sanitize::SanitizedPath& sp,
                          geo::CountryCode cc) {
                         return sp.vp_country == cc &&
                                sp.prefix_country.valid() &&
                                sp.prefix_country != cc;
                       });
}

std::vector<geo::CountryCode> ViewBuilder::countries(
    std::span<const sanitize::SanitizedPath> all) {
  std::unordered_set<geo::CountryCode, geo::CountryCodeHash> seen;
  std::vector<geo::CountryCode> out;
  for (const sanitize::SanitizedPath& sp : all) {
    if (sp.prefix_country.valid() && seen.insert(sp.prefix_country).second) {
      out.push_back(sp.prefix_country);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace georank::core
