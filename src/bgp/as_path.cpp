#include "bgp/as_path.hpp"

#include <algorithm>

#include "bgp/line_parse.hpp"
#include "util/strings.hpp"

namespace georank::bgp {

bool AsPath::contains(Asn asn) const noexcept {
  return std::find(hops_.begin(), hops_.end(), asn) != hops_.end();
}

AsPath AsPath::without_adjacent_duplicates() const {
  std::vector<Asn> out;
  out.reserve(hops_.size());
  for (Asn a : hops_) {
    if (out.empty() || out.back() != a) out.push_back(a);
  }
  return derived(std::move(out));
}

bool AsPath::has_nonadjacent_duplicate() const {
  // Judged on the prepend-collapsed path, so "A A B" is not a loop but
  // "A B A" is, without building that path: compare each run's AS with
  // every hop after the run ends. Paths are a few hops long, so the
  // quadratic scan beats any set and allocates nothing.
  const std::size_t n = hops_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && hops_[i - 1] == hops_[i]) continue;  // inside a run
    std::size_t j = i + 1;
    while (j < n && hops_[j] == hops_[i]) ++j;
    for (; j < n; ++j) {
      if (hops_[j] == hops_[i]) return true;
    }
  }
  return false;
}

std::string AsPath::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(hops_[i]);
  }
  return out;
}

namespace {

constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

bool append_asn(std::string_view token, std::vector<Asn>& hops) {
  Asn asn = 0;
  if (!detail::parse_decimal(token, asn)) return false;
  hops.push_back(asn);
  return true;
}

}  // namespace

std::optional<AsPath> AsPath::parse(std::string_view text) {
  // Fused tokenize-and-parse: this is the hottest function of the whole
  // ingest layer (one call per MRT line, ~5 hops each), so the common
  // case — space-separated decimal ASNs — runs as a single pass with the
  // digit accumulation inlined; only AS_SET tokens take the generic
  // path. Hops accumulate in a reused thread-local scratch (growth
  // reallocations amortize away across lines) and the returned path
  // makes one exact-size allocation. thread_local keeps this safe under
  // MrtStreamLoader's parallel chunk workers.
  thread_local std::vector<Asn> hops;
  hops.clear();
  bool saw_as_set = false;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (true) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) break;
    if (*p == '{') {
      // bgpdump AS_SET: "{64512,64513}". Flatten the members in written
      // order and mark the path; the sanitizer decides whether the route
      // survives. Empty or unterminated sets are malformed.
      const char* q = p;
      while (q != end && !is_space(*q)) ++q;
      std::string_view token(p, static_cast<std::size_t>(q - p));
      p = q;
      if (token.size() < 3 || token.back() != '}') return std::nullopt;
      std::string_view body = token.substr(1, token.size() - 2);
      while (true) {
        std::size_t comma = body.find(',');
        if (!append_asn(body.substr(0, comma), hops)) return std::nullopt;
        if (comma == std::string_view::npos) break;
        body.remove_prefix(comma + 1);
      }
      saw_as_set = true;
    } else {
      // Plain hop: decimal digits up to the next space. Leading zeros
      // don't count toward the 10-digit budget; the value must fit 32
      // bits — the same accept/reject set as util::parse_int<Asn>.
      std::uint64_t value = 0;
      int digits = 0;
      const char* q = p;
      while (q != end && *q >= '0' && *q <= '9') {
        if (value != 0 || *q != '0') {
          if (++digits > 10) return std::nullopt;
        }
        value = value * 10 + static_cast<std::uint64_t>(*q - '0');
        ++q;
      }
      if (q == p || (q != end && !is_space(*q))) return std::nullopt;
      if (value > 0xFFFFFFFFull) return std::nullopt;
      hops.push_back(static_cast<Asn>(value));
      p = q;
    }
  }
  AsPath path{std::vector<Asn>(hops.begin(), hops.end())};
  if (saw_as_set) path.mark_as_set();
  return path;
}

}  // namespace georank::bgp
