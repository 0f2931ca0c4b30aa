// National and international per-country views (§3.2, Figure 3, Table 2).
//
//   national view:      paths from IN-country VPs to IN-country prefixes —
//                       how the country reaches itself;
//   international view: paths from OUT-of-country VPs to IN-country
//                       prefixes — how the rest of the world reaches it.
//
// Every country metric is "the corresponding global metric computed on a
// view". Views used to materialize their path subset (deep-copying every
// AsPath); they are now INDEX LISTS over columnar storage — an O(view
// size) gather instead of an O(all paths) copy. A view does not know (or
// care) which storage it came from: it binds a sanitize::PathColumns
// (seven raw pointers), usually one shard of a ShardedPathStore.
// Shard-backed views can additionally BORROW the shard's precomputed
// index list, so constructing one allocates nothing at all.
//
// Lifetime: a view borrows its columns (and, when borrowed, its index
// list) — the owning shard must outlive it — unless it was built
// standalone via from_paths(), in which case it owns private columns.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bgp/route.hpp"
#include "geo/country.hpp"
#include "sanitize/path_view.hpp"

namespace georank::core {

enum class ViewKind { kNational, kInternational, kOutbound };

class CountryView {
 public:
  geo::CountryCode country;
  ViewKind kind = ViewKind::kNational;

  CountryView() = default;

  /// Borrowing view over any columnar storage (usually one shard):
  /// `cols`' backing store must outlive this view (and every
  /// view derived from it via restricted_to/without_vp). `indices` are
  /// ascending row indices into `cols`.
  CountryView(const sanitize::PathColumns& cols,
              std::vector<std::uint32_t> indices, geo::CountryCode country,
              ViewKind kind);

  /// Zero-copy borrowing view: the index list itself is borrowed too (a
  /// shard's precomputed selection). Both the columns' backing store and
  /// the index list must outlive this view; derived subsets and copies
  /// fall back to owned index storage automatically.
  CountryView(const sanitize::PathColumns& cols,
              std::span<const std::uint32_t> indices, geo::CountryCode country,
              ViewKind kind);

  /// Standalone view owning private columns built from `paths` — the
  /// path for hand-built fixtures and span-based ViewBuilder calls. Each
  /// row gets its own arena slice (no interning: no rank kernel keys on
  /// PathHandle). Copies exactly once, at construction.
  [[nodiscard]] static CountryView from_paths(
      const std::vector<sanitize::SanitizedPath>& paths,
      geo::CountryCode country, ViewKind kind);

  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
  [[nodiscard]] bool empty() const noexcept { return indices_.empty(); }

  /// Zero-copy record access / iteration (records are cheap proxies).
  [[nodiscard]] sanitize::PathRecord operator[](std::size_t i) const;
  [[nodiscard]] sanitize::PathsView paths() const noexcept;
  [[nodiscard]] sanitize::PathsView::iterator begin() const noexcept {
    return paths_.begin();
  }
  [[nodiscard]] sanitize::PathsView::iterator end() const noexcept {
    return paths_.end();
  }

  /// Distinct VPs contributing to the view (sorted ascending).
  [[nodiscard]] std::vector<bgp::VpId> vps() const;
  /// Distinct-VP count WITHOUT materializing the sorted vector.
  [[nodiscard]] std::size_t vp_count() const;

  /// Total effective address weight of the view's distinct prefixes.
  [[nodiscard]] std::uint64_t address_weight() const;

  /// Subset restricted to the given VPs (downsampling). Shares this
  /// view's columns; only the index list is rebuilt.
  [[nodiscard]] CountryView restricted_to(std::span<const bgp::VpId> keep) const;
  /// Leave-one-VP-out subset (vp_bias's influence analysis).
  [[nodiscard]] CountryView without_vp(bgp::VpId vp) const;

  [[nodiscard]] std::span<const std::uint32_t> indices() const noexcept {
    return indices_;
  }

 private:
  /// A standalone view's private column set (defined in views.cpp).
  struct OwnedRows;

  void rebind() noexcept;

  /// Columns of whichever storage backs this view (all null for a
  /// default-constructed empty view).
  sanitize::PathColumns cols_{};
  /// Set only for standalone views; keeps the private columns alive
  /// across copies and derived subsets.
  std::shared_ptr<const OwnedRows> owned_;
  /// Owned index storage — empty when the index list is borrowed.
  std::vector<std::uint32_t> indices_storage_;
  /// The active selection: points at indices_storage_ when owned, at the
  /// lender's list when borrowed.
  std::span<const std::uint32_t> indices_;
  /// Cached PathsView over (cols_, indices_); rebound on copy/move.
  sanitize::PathsView paths_;

 public:
  // indices_storage_ lives inside the view, so copies/moves must re-point
  // both indices_ and paths_.
  CountryView(const CountryView& other);
  CountryView(CountryView&& other) noexcept;
  CountryView& operator=(const CountryView& other);
  CountryView& operator=(CountryView&& other) noexcept;
  ~CountryView() = default;
};

class ViewBuilder {
 public:
  // Span-based builders: filter `all` and copy the matching paths into a
  // standalone view (one pass, one copy). A linear filter that shares no
  // code with ShardedPathStore, which makes it the reference oracle the
  // store's zero-copy views (national_view/international_view/
  // outbound_view) are tested against.
  [[nodiscard]] static CountryView national(
      std::span<const sanitize::SanitizedPath> all, geo::CountryCode country);

  [[nodiscard]] static CountryView international(
      std::span<const sanitize::SanitizedPath> all, geo::CountryCode country);

  /// OUTBOUND view (§7's proposed future direction, implemented here):
  /// paths from IN-country VPs to OUT-of-country prefixes — which ASes
  /// the country relies on to reach the rest of the world. Subject to
  /// the same caveat as national views: it needs in-country VPs.
  [[nodiscard]] static CountryView outbound(
      std::span<const sanitize::SanitizedPath> all, geo::CountryCode country);

  /// All countries with at least one geolocated prefix in the path set.
  [[nodiscard]] static std::vector<geo::CountryCode> countries(
      std::span<const sanitize::SanitizedPath> all);
};

}  // namespace georank::core
