// Dense ids for sparse keys.
//
// DenseIndex gives each distinct key it sees a dense u32 id: 0, 1, 2,
// ... in first-insert order. Per-key state then lives in flat arrays
// indexed by id instead of node-based hash maps, and iterating ids
// 0..size() visits keys in first-seen order, which is a function of
// the input alone.
//
// Lookup is open addressing with linear probing over a power-of-two slot
// table kept at most half full; the top bits of the key's hash pick the
// first slot. A slot holds the key beside its id, so a probe compares
// without touching the id-ordered key list. Nothing is allocated per
// lookup; inserting appends to the key list and doubles the table when
// it would pass half full.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace georank::util {

/// Fibonacci hashing: one multiply by 2^64 / golden ratio carries every
/// key bit into the HIGH bits of the product, which pick the slot.
struct FibonacciHash {
  [[nodiscard]] constexpr std::uint64_t operator()(std::uint64_t key) const noexcept {
    return key * 0x9E3779B97F4A7C15ull;
  }
};

/// `Key` must be default-constructible and equality-comparable; `Hash`
/// maps it to a 64-bit value whose high bits are well mixed (the slot is
/// the top log2(slots) bits).
template <typename Key, typename Hash = FibonacciHash>
class DenseIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Inserted {
    std::uint32_t id;
    bool added;  // true when `key` was new
  };

  /// Sizes the table for `expected` keys.
  explicit DenseIndex(std::size_t expected = 0) {
    std::size_t slots = 16;
    while (slots < 2 * expected) slots *= 2;
    rehash(slots);
  }

  /// The id of `key`, adding it first when it is new.
  Inserted insert(const Key& key) {
    if (2 * (keys_.size() + 1) > slots_.size()) rehash(2 * slots_.size());
    std::size_t s = home(key);
    while (slots_[s].id != kNone) {
      if (slots_[s].key == key) return {slots_[s].id, false};
      s = (s + 1) & mask_;
    }
    const auto id = static_cast<std::uint32_t>(keys_.size());
    slots_[s] = Slot{key, id};
    keys_.push_back(key);
    return {id, true};
  }

  /// The id of `key`, or kNone when it was never inserted.
  [[nodiscard]] std::uint32_t find(const Key& key) const noexcept {
    std::size_t s = home(key);
    while (slots_[s].id != kNone) {
      if (slots_[s].key == key) return slots_[s].id;
      s = (s + 1) & mask_;
    }
    return kNone;
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] const Key& key(std::uint32_t id) const noexcept { return keys_[id]; }

 private:
  struct Slot {
    Key key{};
    std::uint32_t id = kNone;
  };

  [[nodiscard]] std::size_t home(const Key& key) const noexcept {
    return static_cast<std::size_t>(Hash{}(key) >> shift_);
  }

  void rehash(std::size_t slots) {
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t s = home(keys_[id]);
      while (slots_[s].id != kNone) s = (s + 1) & mask_;
      slots_[s] = Slot{keys_[id], id};
    }
  }

  std::vector<Key> keys_;  // by id
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace georank::util
