// One country's slice of the sharded path store.
//
// A shard owns its own column set (structure-of-arrays, so view filters
// scan dense CountryCode arrays) holding every sanitized path that
// TOUCHES its country — prefix geolocated there, VP hosted there, or
// both — in ascending global row order. What it does NOT own is hop storage: AS
// paths are handles into the ShardedPathStore's shared interned-hop
// dictionary, so a path seen from forty countries is stored once.
//
// Alongside the columns the shard precomputes every row selection the
// layers above ever ask for (national / international / outbound /
// by-prefix / by-vp), so building a CountryView over a shard is a pure
// borrow: two pointers, zero allocation, zero index gather.
//
// Lifetime: shards are owned by their ShardedPathStore and point into
// its arena — a shard (and every view over it) must not outlive the
// store. Shards are built once and immutable afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/views.hpp"
#include "geo/country.hpp"
#include "sanitize/path_view.hpp"

namespace georank::core {

class ShardedPathStore;

class PathShard {
 public:
  PathShard() = default;

  [[nodiscard]] geo::CountryCode country() const noexcept { return country_; }
  /// Rows in this shard (prefix-local + vp-local, each row once).
  [[nodiscard]] std::size_t size() const noexcept { return vp_.size(); }
  [[nodiscard]] bool empty() const noexcept { return vp_.empty(); }

  [[nodiscard]] bgp::VpId vp(std::size_t i) const noexcept { return vp_[i]; }
  [[nodiscard]] geo::CountryCode vp_country(std::size_t i) const noexcept {
    return vp_country_[i];
  }
  [[nodiscard]] bgp::Prefix prefix(std::size_t i) const noexcept {
    return prefix_[i];
  }
  [[nodiscard]] geo::CountryCode prefix_country(std::size_t i) const noexcept {
    return prefix_country_[i];
  }
  [[nodiscard]] std::uint64_t weight(std::size_t i) const noexcept {
    return weight_[i];
  }
  [[nodiscard]] bgp::AsPathView hops(std::size_t i) const noexcept {
    return {arena_ + handle_[i].offset, handle_[i].length};
  }

  /// This shard's columns; `arena` is the store's SHARED hop dictionary.
  [[nodiscard]] sanitize::PathColumns columns() const noexcept {
    return {vp_.data(),      vp_country_.data(), prefix_.data(),
            prefix_country_.data(), weight_.data(),     handle_.data(),
            arena_};
  }

  // Precomputed row selections (shard-local indices, ascending — which
  // is also ascending GLOBAL order, so metric accumulation order matches
  // a linear filter over the input bit for bit).
  /// Rows whose prefix geolocates to this country.
  [[nodiscard]] std::span<const std::uint32_t> prefix_rows() const noexcept {
    return prefix_rows_;
  }
  /// Rows whose VP is hosted in this country.
  [[nodiscard]] std::span<const std::uint32_t> vp_rows() const noexcept {
    return vp_rows_;
  }
  [[nodiscard]] std::span<const std::uint32_t> national_rows() const noexcept {
    return national_rows_;
  }
  [[nodiscard]] std::span<const std::uint32_t> international_rows()
      const noexcept {
    return international_rows_;
  }
  [[nodiscard]] std::span<const std::uint32_t> outbound_rows() const noexcept {
    return outbound_rows_;
  }

  // Zero-copy views borrowing this shard's columns AND its precomputed
  // index lists. Valid only while the owning store lives.
  [[nodiscard]] CountryView national_view() const {
    return CountryView{columns(), national_rows(), country_,
                       ViewKind::kNational};
  }
  [[nodiscard]] CountryView international_view() const {
    return CountryView{columns(), international_rows(), country_,
                       ViewKind::kInternational};
  }
  [[nodiscard]] CountryView outbound_view() const {
    return CountryView{columns(), outbound_rows(), country_,
                       ViewKind::kOutbound};
  }
  [[nodiscard]] CountryView view(ViewKind kind) const {
    switch (kind) {
      case ViewKind::kInternational: return international_view();
      case ViewKind::kOutbound: return outbound_view();
      case ViewKind::kNational: break;
    }
    return national_view();
  }

  /// Content digest: FNV-1a over every row's scalar fields and its hop
  /// SEQUENCE (not its arena offset, which shifts between loads). Two
  /// loads that produce the same paths for this country produce the same
  /// digest, so the pipeline can keep memoized rankings warm across a
  /// reload that didn't touch the country.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// Scheduling hint for the census: total work this shard represents
  /// (rows + interned hops touched). Feeds parallel_for_costed's
  /// largest-first order.
  [[nodiscard]] std::uint64_t cost() const noexcept { return cost_; }

 private:
  friend class ShardedPathStore;

  geo::CountryCode country_;
  std::vector<bgp::VpId> vp_;
  std::vector<geo::CountryCode> vp_country_;
  std::vector<bgp::Prefix> prefix_;
  std::vector<geo::CountryCode> prefix_country_;
  std::vector<std::uint64_t> weight_;
  std::vector<sanitize::PathHandle> handle_;
  /// Shared hop dictionary, owned by the ShardedPathStore.
  const bgp::Asn* arena_ = nullptr;

  std::vector<std::uint32_t> prefix_rows_;
  std::vector<std::uint32_t> vp_rows_;
  std::vector<std::uint32_t> national_rows_;
  std::vector<std::uint32_t> international_rows_;
  std::vector<std::uint32_t> outbound_rows_;
  std::uint64_t digest_ = 0;
  std::uint64_t cost_ = 0;
};

}  // namespace georank::core
