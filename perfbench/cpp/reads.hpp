// Closed-loop HTTP readers shared by the live and serve workloads, and
// the read key space they draw from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

/// GET targets over a snapshot: rankings for every country x metric x
/// k in {10, 100, 1000}, a delta per country x metric, the AS lookups
/// for every ranked ASN, and health; shuffled by `seed`, so Zipf rank r
/// is a seed-chosen key.
[[nodiscard]] std::vector<std::string> read_keys(const georank::serve::Snapshot& snapshot,
                                                 std::uint64_t seed);

struct ReadSample {
  Clock::time_point start;
  double us = 0.0;
  bool traced = false;
};

struct ReadStats {
  std::vector<ReadSample> samples;  // successful reads, all connections
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // transport failure or non-2xx
  std::uint64_t mismatched = 0;  // 2xx body differs from `expected`
};

/// `connections` keep-alive clients, one thread each, send GETs for
/// Zipf(zipf_s)-drawn keys back to back until the window closes. After
/// `warmup` unrecorded reads per connection every read is timed from
/// send to full body. When `expected` is given (parallel to `keys`)
/// every body is compared with it. With a `tracer`, each read in the
/// traced half is an "http.get" span.
[[nodiscard]] ReadStats run_reads(std::uint16_t port, const std::vector<std::string>& keys,
                                  const std::vector<std::string>* expected, double zipf_s,
                                  std::uint64_t seed, std::size_t connections,
                                  std::size_t warmup, const Window& window, Tracer* tracer);

/// Reports median and tail of the read latencies (µs) and completed
/// reads per second over the untraced reads; returns the median.
double report_reads(const ReadStats& reads, const Window& window, Result& result);

}  // namespace perfbench
