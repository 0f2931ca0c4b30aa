// AS numbers and AS paths as observed in BGP announcements.
//
// Convention (matches the paper's figures): hops[0] is the AS hosting the
// vantage point (nearest the collector) and hops.back() is the origin AS
// that announced the prefix.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace georank::bgp {

using Asn = std::uint32_t;
inline constexpr Asn kInvalidAsn = 0;

class AsPath {
 public:
  AsPath() = default;
  explicit AsPath(std::vector<Asn> hops) : hops_(std::move(hops)) {}
  AsPath(std::initializer_list<Asn> hops) : hops_(hops) {}

  [[nodiscard]] std::span<const Asn> hops() const noexcept { return hops_; }
  [[nodiscard]] bool empty() const noexcept { return hops_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return hops_.size(); }
  [[nodiscard]] Asn operator[](std::size_t i) const noexcept { return hops_[i]; }

  /// AS adjacent to the vantage point (first hop).
  [[nodiscard]] Asn vp_as() const noexcept { return hops_.front(); }
  /// AS that originated the prefix (last hop).
  [[nodiscard]] Asn origin() const noexcept { return hops_.back(); }

  [[nodiscard]] bool contains(Asn asn) const noexcept;

  /// Prepend-collapse: "A A B B C" -> "A B C". Paths routinely carry
  /// AS-prepending for traffic engineering; all metrics ignore it.
  [[nodiscard]] AsPath without_adjacent_duplicates() const;

  /// True if any AS appears at two NON-adjacent positions ("A C A").
  /// Such paths are loops (Table 1, "loop") and are rejected.
  [[nodiscard]] bool has_nonadjacent_duplicate() const;

  void push_back(Asn asn) { hops_.push_back(asn); }

  /// True if the path was parsed from text containing bgpdump AS_SET
  /// syntax ("{64512,64513}"). The members are flattened into hops_ in
  /// written order so the path stays usable, and this mark lets
  /// sanitize::PathSanitizer make the drop decision (AS_SETs carry no
  /// hop ordering, so the paper's path metrics exclude them). Preserved
  /// by without_adjacent_duplicates(); participates in equality, so a
  /// flattened AS_SET path never compares equal to the same hops written
  /// plainly.
  [[nodiscard]] bool has_as_set() const noexcept { return has_as_set_; }
  void mark_as_set() noexcept { has_as_set_ = true; }

  /// "701 3356 1299" (space-separated, VP side first). AS_SETs are
  /// serialized flattened — to_string() is lossy for them by design.
  [[nodiscard]] std::string to_string() const;
  /// Accepts plain paths and bgpdump AS_SET tokens ("701 {64512,64513}"),
  /// flattening the latter and marking the result (see has_as_set()).
  [[nodiscard]] static std::optional<AsPath> parse(std::string_view text);

  friend bool operator==(const AsPath&, const AsPath&) = default;

 private:
  /// A copy of this path with different hops but the same as-set mark.
  [[nodiscard]] AsPath derived(std::vector<Asn> hops) const {
    AsPath out{std::move(hops)};
    out.has_as_set_ = has_as_set_;
    return out;
  }

  std::vector<Asn> hops_;
  bool has_as_set_ = false;
};

/// Non-owning, read-only view of an AS path — the same hop accessors as
/// AsPath over externally owned storage (an interned arena, an AsPath's
/// own hops). Implicitly constructible from AsPath so code written
/// against AsPath's read API works on either. The referenced hops must
/// outlive the view.
class AsPathView {
 public:
  constexpr AsPathView() noexcept = default;
  constexpr AsPathView(const Asn* hops, std::size_t size) noexcept
      : hops_(hops, size) {}
  constexpr AsPathView(std::span<const Asn> hops) noexcept : hops_(hops) {}
  AsPathView(const AsPath& path) noexcept : hops_(path.hops()) {}  // NOLINT

  [[nodiscard]] constexpr std::span<const Asn> hops() const noexcept {
    return hops_;
  }
  [[nodiscard]] constexpr bool empty() const noexcept { return hops_.empty(); }
  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return hops_.size();
  }
  [[nodiscard]] constexpr Asn operator[](std::size_t i) const noexcept {
    return hops_[i];
  }

  /// AS adjacent to the vantage point (first hop).
  [[nodiscard]] constexpr Asn vp_as() const noexcept { return hops_.front(); }
  /// AS that originated the prefix (last hop).
  [[nodiscard]] constexpr Asn origin() const noexcept { return hops_.back(); }

  [[nodiscard]] bool contains(Asn asn) const noexcept {
    for (Asn hop : hops_) {
      if (hop == asn) return true;
    }
    return false;
  }

  /// Deep copy back into an owning AsPath.
  [[nodiscard]] AsPath materialize() const {
    return AsPath{std::vector<Asn>(hops_.begin(), hops_.end())};
  }

  friend bool operator==(AsPathView a, AsPathView b) noexcept {
    return a.hops_.size() == b.hops_.size() &&
           std::equal(a.hops_.begin(), a.hops_.end(), b.hops_.begin());
  }

 private:
  std::span<const Asn> hops_;
};

}  // namespace georank::bgp
