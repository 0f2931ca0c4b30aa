#include "sanitize/path_view.hpp"

#include <algorithm>
#include <utility>

namespace georank::sanitize {

namespace {

/// Upper 32 bits of a mixed FNV-1a over the hops. The finalizer spreads
/// every hop bit over the upper half, which both the probe start and
/// the tag read.
std::uint32_t hash_tag(std::span<const bgp::Asn> hops) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (bgp::Asn hop : hops) {
    h ^= hop;
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h >> 32);
}

}  // namespace

void PathInterner::reserve(std::size_t paths) {
  if (2 * paths > slots_.size()) rehash(2 * paths);
}

std::uint32_t PathInterner::find(std::span<const bgp::Asn> hops) const noexcept {
  if (slots_.empty()) return kNoId;
  const std::uint32_t tag = hash_tag(hops);
  const std::size_t n = slots_.size();
  for (std::size_t i = home(tag, n);; i = i + 1 == n ? 0 : i + 1) {
    const Slot slot = slots_[i];
    if (slot.id == kNoId) return kNoId;
    if (slot.tag == tag) {
      const PathHandle h = handles_[slot.id];
      if (h.length == hops.size() &&
          std::equal(hops.begin(), hops.end(), arena_.begin() + h.offset)) {
        return slot.id;
      }
    }
  }
}

std::uint32_t PathInterner::intern(std::span<const bgp::Asn> hops) {
  if (2 * (handles_.size() + 1) > slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::uint32_t tag = hash_tag(hops);
  std::size_t i = home(tag, slots_.size());
  for (;; i = i + 1 == slots_.size() ? 0 : i + 1) {
    const Slot slot = slots_[i];
    if (slot.id == kNoId) break;
    if (slot.tag == tag) {
      const PathHandle h = handles_[slot.id];
      if (h.length == hops.size() &&
          std::equal(hops.begin(), hops.end(), arena_.begin() + h.offset)) {
        return slot.id;
      }
    }
  }
  const auto id = static_cast<std::uint32_t>(handles_.size());
  handles_.push_back(PathHandle{static_cast<std::uint32_t>(arena_.size()),
                                static_cast<std::uint32_t>(hops.size())});
  arena_.insert(arena_.end(), hops.begin(), hops.end());
  slots_[i] = Slot{id, tag};
  return id;
}

void PathInterner::clear() noexcept {
  arena_.clear();
  handles_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
}

void PathInterner::rehash(std::size_t slots) {
  std::vector<Slot> table(slots);
  for (const Slot& slot : slots_) {
    if (slot.id == kNoId) continue;
    std::size_t i = home(slot.tag, slots);
    while (table[i].id != kNoId) i = i + 1 == slots ? 0 : i + 1;
    table[i] = slot;
  }
  slots_ = std::move(table);
}

}  // namespace georank::sanitize
