// Zero-copy iteration over sanitized paths, regardless of storage layout.
//
// The metric kernels (customer cone, hegemony, CTI, AHC) only ever READ
// (vp, vp_country, prefix, prefix_country, weight, hops) tuples. PathsView
// type-erases where those tuples live:
//
//   * row form:     a span of SanitizedPath structs (the sanitizer's
//                   output, and any test fixture built by hand);
//   * column form:  parallel columns plus AS-path handles into a shared
//                   interned arena (a core::ShardedPathStore shard's
//                   layout).
//
// Either form may additionally be composed with an index list, which is
// how country views select their subset without copying a single path.
// PathsView is a borrowing type: the underlying storage (and the index
// list, when present) must outlive it. It is implicitly constructible
// from a vector/span of SanitizedPath so pre-existing call sites keep
// compiling unchanged.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "sanitize/path_sanitizer.hpp"

namespace georank::sanitize {

/// An interned AS path: `length` hops starting at `offset` in the arena.
struct PathHandle {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  friend bool operator==(PathHandle, PathHandle) = default;
};

/// Columnar (structure-of-arrays) storage of sanitized paths. All column
/// pointers address arrays of the same length; `arena` is the shared hop
/// arena the handles index into.
struct PathColumns {
  const bgp::VpId* vp = nullptr;
  const geo::CountryCode* vp_country = nullptr;
  const bgp::Prefix* prefix = nullptr;
  const geo::CountryCode* prefix_country = nullptr;
  const std::uint64_t* weight = nullptr;
  const PathHandle* handle = nullptr;
  const bgp::Asn* arena = nullptr;
};

/// One sanitized path, projected out of either storage form. Field names
/// mirror SanitizedPath so code reads identically; `path` is a non-owning
/// AsPathView instead of a heap-backed AsPath.
struct PathRecord {
  bgp::VpId vp;
  geo::CountryCode vp_country;
  bgp::Prefix prefix;
  geo::CountryCode prefix_country;
  std::uint64_t weight = 0;
  bgp::AsPathView path;

  /// Deep copy into the owning row form (tests, serialization).
  [[nodiscard]] SanitizedPath materialize() const {
    return SanitizedPath{vp,    vp_country,         prefix,
                         prefix_country, weight, path.materialize()};
  }
};

class PathsView {
 public:
  constexpr PathsView() noexcept = default;

  // Row form (implicit: legacy call sites pass vectors/spans directly).
  PathsView(std::span<const SanitizedPath> rows) noexcept  // NOLINT
      : rows_(rows.data()), size_(rows.size()) {}
  PathsView(const std::vector<SanitizedPath>& rows) noexcept  // NOLINT
      : rows_(rows.data()), size_(rows.size()) {}

  // Column form, whole store or an index-selected subset.
  PathsView(const PathColumns& cols, std::size_t size) noexcept
      : cols_(cols), size_(size) {}
  PathsView(const PathColumns& cols, std::span<const std::uint32_t> indices) noexcept
      : cols_(cols), indices_(indices.data()), size_(indices.size()) {}

  // Row form restricted to an index list.
  PathsView(std::span<const SanitizedPath> rows,
            std::span<const std::uint32_t> indices) noexcept
      : rows_(rows.data()), indices_(indices.data()), size_(indices.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Index into the UNDERLYING storage of the k-th element (k itself when
  /// no index list is attached). Lets callers build sub-selections that
  /// compose with an existing selection.
  [[nodiscard]] std::size_t base_index(std::size_t k) const noexcept {
    return indices_ ? indices_[k] : k;
  }

  [[nodiscard]] PathRecord operator[](std::size_t k) const noexcept {
    const std::size_t i = base_index(k);
    if (rows_) {
      const SanitizedPath& sp = rows_[i];
      return PathRecord{sp.vp,     sp.vp_country, sp.prefix,
                        sp.prefix_country, sp.weight, bgp::AsPathView{sp.path}};
    }
    return PathRecord{
        cols_.vp[i],     cols_.vp_country[i], cols_.prefix[i],
        cols_.prefix_country[i], cols_.weight[i],
        bgp::AsPathView{cols_.arena + cols_.handle[i].offset,
                        cols_.handle[i].length}};
  }

  /// Same base storage, different selection. `indices` are BASE indices
  /// (see base_index) and must outlive the returned view.
  [[nodiscard]] PathsView rebase(std::span<const std::uint32_t> indices) const noexcept {
    PathsView out = *this;
    out.indices_ = indices.data();
    out.size_ = indices.size();
    return out;
  }

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = PathRecord;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const PathsView* view, std::size_t k) : view_(view), k_(k) {}

    PathRecord operator*() const { return (*view_)[k_]; }
    iterator& operator++() {
      ++k_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++k_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.k_ == b.k_;
    }

   private:
    const PathsView* view_ = nullptr;
    std::size_t k_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {this, size_}; }

 private:
  const SanitizedPath* rows_ = nullptr;
  PathColumns cols_{};
  const std::uint32_t* indices_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace georank::sanitize
