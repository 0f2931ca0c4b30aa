// Shared plumbing of the georank benchmark binary: clocks and
// percentiles, the seeded input generators, the span recorder behind
// the traced runs, the result block every workload fills in, and the
// host-drift controls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// splitmix64: the benchmark's only randomness, so a seed fixes every
/// input on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  [[nodiscard]] double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  [[nodiscard]] std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(Rng& rng) const { return at(rng.uniform()); }
  /// The rank whose CDF interval holds u in [0, 1).
  [[nodiscard]] std::size_t at(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Golden-ratio (Weyl) sequence in [0, 1) from a seeded start: its first
/// n values spread evenly, so n Zipf draws through it match the
/// distribution closely for every seed.
class EvenUniform {
 public:
  explicit EvenUniform(Rng& rng) : u_(rng.uniform()) {}
  double next() {
    u_ += 0.6180339887498949;
    if (u_ >= 1.0) u_ -= 1.0;
    return u_;
  }

 private:
  double u_;
};

/// Records named spans (start, end, parent, operation id, thread) in
/// memory while enabled, and derives per-layer times from them. A
/// span's parent is the innermost span open on the same thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t thread = 0;
    std::uint64_t op = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span that closes when the returned scope is destroyed; a
  /// no-op while tracing is off.
  [[nodiscard]] Scope span(const char* name, std::uint64_t op) {
    return Scope{enabled() ? this : nullptr, name, op};
  }

  enum class Agg { kSum, kMax };
  /// Median over operations of the per-operation sum (or max) of the
  /// named spans' durations, in ms.
  [[nodiscard]] double per_op_ms(std::string_view name, Agg agg = Agg::kSum) const;
  /// Every recorded duration of the named span, in ms.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const { return dropped_.load(); }

  /// Chrome trace-event JSON (complete "X" events), loadable in Perfetto.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

  /// Spans kept before recording stops (bounds memory on read loops).
  static constexpr std::size_t kCapacity = 400000;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::atomic<std::size_t> dropped_{0};
  const Clock::time_point epoch_ = Clock::now();
};

/// What a run reports: the gates' verdict, operation counts, named
/// metrics with units, and the provenance block.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);
  /// Records a correctness gate; a failed gate voids the run.
  void gate(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::string result_json() const;
  [[nodiscard]] std::string provenance_json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  bool correct_ = true;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> info_;  // key -> JSON value text
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required; run.py passes run_seconds by default
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

/// The measured window, split for traced runs: the first half runs
/// untraced (its median is the overhead baseline), the second traced.
struct Window {
  explicit Window(const Args& args);
  [[nodiscard]] bool open() const { return Clock::now() < end; }
  /// True once the traced half has begun (never for untraced runs).
  [[nodiscard]] bool traced_now() const { return trace && Clock::now() >= split; }

  bool trace;
  Clock::time_point start, split, end;
};

/// Per-operation latencies, split by whether the tracer was on.
struct Latencies {
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  void add(bool traced, double ms) { (traced ? traced_ms : plain_ms).push_back(ms); }
};

/// Reports the end-to-end metrics common to every workload but setup_s
/// (op_p50_ms, ok_ratio, peak_rss_mb) or, for traced runs, the tracing
/// overhead; the caller has filled attempted/failed.
void report_common(const Args& args, const Latencies& ops, Tracer& tracer, Result& result);

/// Process peak resident set (VmHWM), MB.
[[nodiscard]] double peak_rss_mb();
/// Lowers VmHWM to the current resident set; false if the kernel refuses.
bool reset_peak_rss();

/// Host-drift controls: a fixed in-cache compute loop and a fixed
/// DRAM-bound pass, each the median of several repetitions, in ms.
/// Recorded beside the results, never used to scale them.
[[nodiscard]] double host_cpu_ms();
[[nodiscard]] double host_mem_ms();

/// Sets GEORANK_THREADS, the library's worker count, for its lifetime
/// and then restores the caller's setting. Only use while no other
/// thread reads the environment.
class ScopedLibraryThreads {
 public:
  explicit ScopedLibraryThreads(const char* value);
  ~ScopedLibraryThreads();
  ScopedLibraryThreads(const ScopedLibraryThreads&) = delete;
  ScopedLibraryThreads& operator=(const ScopedLibraryThreads&) = delete;

 private:
  bool had_prior_ = false;
  std::string prior_;
};

}  // namespace perfbench
