#include "bgp/mrt_stream.hpp"

#include <chrono>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel_for.hpp"

namespace georank::bgp {

namespace {

/// One chunk's parse output: entries in input order plus diagnostics with
/// chunk-relative (1-based) line numbers.
struct ChunkResult {
  std::vector<std::pair<int, RouteEntry>> entries;
  MrtParseStats stats;
};

ChunkResult parse_chunk(std::string_view chunk, const MrtStreamOptions& options) {
  // Workers always run tolerant; strict mode is enforced at the ordered
  // merge so the reported first error is deterministic under any schedule.
  MrtStreamOptions tolerant = options;
  tolerant.mode = ParseMode::kTolerant;

  ChunkResult out;
  // ~72 bytes per MRT line in practice; reserving up front keeps the
  // entries vector from reallocating a dozen times per chunk.
  out.entries.reserve(chunk.size() / 64 + 1);
  RouteEntry entry;
  int day = 0;
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    std::size_t newline = chunk.find('\n', pos);
    std::size_t end = newline == std::string_view::npos ? chunk.size() : newline;
    std::string_view line = chunk.substr(pos, end - pos);
    pos = newline == std::string_view::npos ? chunk.size() : newline + 1;
    if (parse_line(line, tolerant, out.stats, entry, day)) {
      out.entries.emplace_back(day, std::move(entry));
    }
  }
  return out;
}

/// Pulls newline-aligned chunks of ~target bytes off an istream. A line
/// longer than target grows its chunk rather than splitting mid-line.
class StreamChunker {
 public:
  StreamChunker(std::istream& is, std::size_t target)
      : is_(&is), target_(target ? target : 1) {}

  bool next(std::string& chunk) {
    chunk = std::move(carry_);
    carry_.clear();
    while (true) {
      if (chunk.size() >= target_) {
        std::size_t newline = chunk.rfind('\n');
        if (newline != std::string::npos) {
          carry_.assign(chunk, newline + 1, std::string::npos);
          chunk.resize(newline + 1);
          return true;
        }
      }
      if (!*is_) break;  // input exhausted: the remainder is the last chunk
      std::size_t old_size = chunk.size();
      chunk.resize(old_size + target_);
      is_->read(chunk.data() + old_size, static_cast<std::streamsize>(target_));
      chunk.resize(old_size + static_cast<std::size_t>(is_->gcount()));
    }
    return !chunk.empty();
  }

 private:
  std::istream* is_;
  std::size_t target_;
  std::string carry_;
};

/// Newline-aligned views over an in-memory buffer; no copies.
class TextChunker {
 public:
  TextChunker(std::string_view text, std::size_t target)
      : text_(text), target_(target ? target : 1) {}

  bool next(std::string_view& chunk) {
    if (pos_ >= text_.size()) return false;
    std::size_t end = pos_ + target_;
    if (end >= text_.size()) {
      end = text_.size();
    } else {
      std::size_t newline = text_.find('\n', end);
      end = newline == std::string_view::npos ? text_.size() : newline + 1;
    }
    chunk = text_.substr(pos_, end - pos_);
    pos_ = end;
    return true;
  }

 private:
  std::string_view text_;
  std::size_t target_;
  std::size_t pos_ = 0;
};

/// Collects `by_day` into a RibCollection in day order.
RibCollection collect_days(std::map<int, RibSnapshot>& by_day) {
  RibCollection out;
  out.days.reserve(by_day.size());
  for (auto& [day, snap] : by_day) out.days.push_back(std::move(snap));
  return out;
}

/// Sequential fast path for threads == 1: lines parse straight into the
/// day snapshots, skipping the chunk-result staging and its per-entry
/// moves entirely. The stats' line counter is global here, so strict
/// mode throws with the right line number without any offset
/// bookkeeping.
template <typename ChunkType, typename NextChunk>
RibCollection load_sequential(const MrtStreamOptions& options,
                              MrtParseStats& stats, NextChunk&& next_chunk,
                              std::chrono::steady_clock::time_point start) {
  std::map<int, RibSnapshot> by_day;
  int last_day = -1;
  RibSnapshot* last_snap = nullptr;
  std::size_t bytes = 0;
  RouteEntry entry;
  int day = 0;
  ChunkType chunk;
  while (next_chunk(chunk)) {
    std::string_view view{chunk};
    bytes += view.size();
    std::size_t pos = 0;
    while (pos < view.size()) {
      std::size_t newline = view.find('\n', pos);
      std::size_t end = newline == std::string_view::npos ? view.size() : newline;
      std::string_view line = view.substr(pos, end - pos);
      pos = newline == std::string_view::npos ? view.size() : newline + 1;
      if (!parse_line(line, options, stats, entry, day)) continue;
      if (day != last_day || last_snap == nullptr) {
        // Dumps are written day by day, so the previous day's entry
        // count is a good capacity hint for a fresh snapshot.
        std::size_t hint = last_snap ? last_snap->entries.size() : 0;
        last_snap = &by_day[day];
        last_snap->day = day;
        last_day = day;
        if (hint > 0 && last_snap->entries.capacity() < hint) {
          last_snap->entries.reserve(hint);
        }
      }
      last_snap->entries.push_back(std::move(entry));
    }
  }
  stats.bytes = bytes;
  stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return collect_days(by_day);
}

template <typename ChunkType, typename NextChunk>
RibCollection load_impl(const MrtStreamOptions& options, MrtParseStats& stats,
                        NextChunk&& next_chunk) {
  auto start = std::chrono::steady_clock::now();
  stats = MrtParseStats{};
  std::size_t threads =
      options.threads ? options.threads : util::default_thread_count();
  if (threads <= 1) {
    return load_sequential<ChunkType>(options, stats,
                                      std::forward<NextChunk>(next_chunk),
                                      start);
  }
  std::size_t batch_size =
      options.chunks_per_batch ? options.chunks_per_batch : 4 * threads;
  if (batch_size == 0) batch_size = 1;

  std::map<int, RibSnapshot> by_day;
  // Consecutive entries almost always share a day, and std::map nodes are
  // pointer-stable, so one cached pointer replaces a map lookup per entry.
  int last_day = -1;
  RibSnapshot* last_snap = nullptr;
  std::vector<ChunkType> chunks;
  std::vector<ChunkResult> results;
  while (true) {
    chunks.clear();
    while (chunks.size() < batch_size) {
      ChunkType chunk;
      if (!next_chunk(chunk)) break;
      chunks.push_back(std::move(chunk));
    }
    if (chunks.empty()) break;

    results.assign(chunks.size(), ChunkResult{});
    util::parallel_for(
        chunks.size(),
        [&](std::size_t i) {
          results[i] = parse_chunk(std::string_view(chunks[i]), options);
        },
        threads);

    // Deterministic merge in input order: entries append exactly as the
    // single-threaded reader would, and strict mode surfaces the FIRST
    // malformed line with its global 1-based line number.
    for (ChunkResult& result : results) {
      if (options.mode == ParseMode::kStrict && result.stats.malformed > 0) {
        const MrtParseStats::Sample& first = result.stats.samples.front();
        throw MrtParseError{stats.lines + first.line_number, first.reason,
                            first.text};
      }
      stats.merge(result.stats, stats.lines);
      for (auto& [day, entry] : result.entries) {
        if (day != last_day || last_snap == nullptr) {
          last_snap = &by_day[day];
          last_snap->day = day;
          last_day = day;
        }
        last_snap->entries.push_back(std::move(entry));
      }
    }
    for (const ChunkType& chunk : chunks) stats.bytes += chunk.size();
  }
  stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return collect_days(by_day);
}

}  // namespace

RibCollection MrtStreamLoader::load(std::istream& is) {
  StreamChunker chunker{is, options_.chunk_bytes};
  return load_impl<std::string>(
      options_, stats_, [&](std::string& chunk) { return chunker.next(chunk); });
}

RibCollection MrtStreamLoader::load_text(std::string_view text) {
  TextChunker chunker{text, options_.chunk_bytes};
  return load_impl<std::string_view>(options_, stats_, [&](std::string_view& chunk) {
    return chunker.next(chunk);
  });
}

}  // namespace georank::bgp
