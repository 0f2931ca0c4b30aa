// Streaming, fault-tolerant MRT text ingest — the production front door
// for bgpdump-style RIB dumps (248M-line collector feeds in the paper's
// setting).
//
// MrtStreamLoader reads the input in bounded-memory, newline-aligned
// chunks, parses a batch of chunks in parallel on util::parallel_for,
// and merges the results back in INPUT ORDER, so the resulting
// RibCollection (and its stats) is bit-identical to a threads = 1 load
// of the same input for any chunk size or thread count: every line goes
// through bgp::parse_line (bgp/line_parse.hpp). Memory is bounded
// by chunks_per_batch * chunk_bytes of text (plus the parsed output),
// never the whole dump.
//
// Modes (bgp/line_parse.hpp):
//   * tolerant — malformed lines are counted per reason and skipped;
//     stats() carries the per-reason counters, first-N offending lines,
//     and bytes/lines-per-second throughput.
//   * strict — the loader throws MrtParseError at the FIRST malformed
//     line (globally, in input order — deterministic regardless of the
//     parallel schedule) with its 1-based line number and reason.
#pragma once

#include <iosfwd>
#include <string_view>

#include "bgp/line_parse.hpp"
#include "bgp/mrt_text.hpp"

namespace georank::bgp {

struct MrtStreamOptions {
  /// Day 0 starts here; each day d covers [base + d*86400, base + (d+1)*86400).
  std::uint64_t base_time = 1617235200;
  ParseMode mode = ParseMode::kTolerant;
  /// Sane day horizon: timestamps at or past base_time + max_day*86400
  /// (or before base_time) are rejected as day_out_of_range. Real
  /// collections span days, not years; anything outside is clock skew,
  /// a mixed-up archive, or corruption.
  int max_day = 366;
  /// Target chunk size; chunks are extended to the next newline (a single
  /// line longer than this grows its chunk, so pathological one-line
  /// inputs still parse).
  std::size_t chunk_bytes = std::size_t{1} << 20;
  /// Chunks parsed per parallel batch; 0 -> 4x the worker count.
  std::size_t chunks_per_batch = 0;
  /// Worker threads; 0 -> util::default_thread_count() (GEORANK_THREADS).
  std::size_t threads = 0;
};

class MrtStreamLoader {
 public:
  explicit MrtStreamLoader(MrtStreamOptions options = {})
      : options_(options) {}

  /// Parses the whole stream into a day-grouped RibCollection.
  [[nodiscard]] RibCollection load(std::istream& is);

  /// Same, over an in-memory buffer (chunked without copying the text).
  [[nodiscard]] RibCollection load_text(std::string_view text);

  /// Diagnostics for the most recent load, including throughput.
  [[nodiscard]] const MrtParseStats& stats() const noexcept { return stats_; }

 private:
  MrtStreamOptions options_;
  MrtParseStats stats_;
};

}  // namespace georank::bgp
