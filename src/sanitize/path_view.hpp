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
//
// PathInterner, the hop dictionary behind the handles, lives here too:
// the store's shared arena and the sanitizer's dedup ids are both one.
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

/// Exact interner of hop sequences. Each distinct sequence is stored
/// once in one hop arena and named by a dense id (0, 1, 2, ... in
/// first-intern order) and by the PathHandle of its arena slice.
///
/// Lookup is open addressing with linear probing over a slot table kept
/// at most half full. A slot holds an id and the upper half of its
/// sequence's hash: the hash picks the probe start and skips most
/// mismatches, and a full content compare against the arena decides
/// every match, so two ids never name equal sequences and equal ids mean
/// equal hops. Nothing is allocated per lookup; interning appends to the
/// arena and grows the tables by doubling.
class PathInterner {
 public:
  static constexpr std::uint32_t kNoId = ~std::uint32_t{0};

  /// Sizes the slot table for `paths` distinct sequences.
  void reserve(std::size_t paths);

  /// The id of `hops`, interning the sequence first when it is new.
  std::uint32_t intern(std::span<const bgp::Asn> hops);

  /// The id of `hops`, or kNoId when it was never interned.
  [[nodiscard]] std::uint32_t find(std::span<const bgp::Asn> hops) const noexcept;

  [[nodiscard]] PathHandle handle(std::uint32_t id) const noexcept {
    return handles_[id];
  }
  [[nodiscard]] std::span<const bgp::Asn> hops(std::uint32_t id) const noexcept {
    return {arena_.data() + handles_[id].offset, handles_[id].length};
  }

  /// Distinct sequences interned.
  [[nodiscard]] std::size_t size() const noexcept { return handles_.size(); }
  /// The hop arena every handle indexes into. Interning may reallocate it.
  [[nodiscard]] const bgp::Asn* arena() const noexcept { return arena_.data(); }
  [[nodiscard]] std::size_t arena_size() const noexcept { return arena_.size(); }

  /// Forgets every sequence; keeps the tables' capacity.
  void clear() noexcept;

 private:
  struct Slot {
    std::uint32_t id = kNoId;
    std::uint32_t tag = 0;  // upper half of the sequence's hash
  };

  /// First probe position of a tag in a table of `slots` entries.
  [[nodiscard]] static std::size_t home(std::uint32_t tag, std::size_t slots) noexcept {
    return static_cast<std::size_t>((std::uint64_t{tag} * slots) >> 32);
  }
  void rehash(std::size_t slots);

  std::vector<bgp::Asn> arena_;
  std::vector<PathHandle> handles_;  // by id
  std::vector<Slot> slots_;
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
