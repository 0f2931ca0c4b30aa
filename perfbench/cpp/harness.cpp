#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::at(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

// ---- Tracer ---------------------------------------------------------------

namespace {

thread_local std::int32_t t_open_span = -1;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = t_open_span;
  span.thread = thread_number();
  span.op = op;
  std::lock_guard lock{tracer_->mutex_};
  if (tracer_->spans_.size() >= kCapacity) {
    tracer_->dropped_.fetch_add(1);
    tracer_ = nullptr;
    return;
  }
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  saved_parent_ = t_open_span;
  t_open_span = index_;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - tracer_->epoch_)
                      .count();
  tracer_->spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - tracer_->epoch_)
                               .count();
  std::lock_guard lock{tracer_->mutex_};
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = end;
  t_open_span = saved_parent_;
}

double Tracer::per_op_ms(std::string_view name, Agg agg) const {
  std::lock_guard lock{mutex_};
  std::map<std::uint64_t, double> per_op;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    auto [it, fresh] = per_op.emplace(s.op, ms);
    if (!fresh) it->second = agg == Agg::kSum ? it->second + ms : std::max(it->second, ms);
  }
  std::vector<double> values;
  values.reserve(per_op.size());
  for (const auto& [op, ms] : per_op) values.push_back(ms);
  return median(std::move(values));
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::lock_guard lock{mutex_};
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock{mutex_};
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  std::lock_guard lock{mutex_};
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* parent = s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"georank\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"parent_name\":\"%s\",\"op\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  parent, static_cast<unsigned long long>(s.op));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- Result ---------------------------------------------------------------

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::info(const std::string& key, double value) { info_[key] = json_number(value); }

void Result::info(const std::string& key, const std::string& value) {
  info_[key] = json_string(value);
}

void Result::gate(bool ok, const std::string& what) {
  std::fprintf(stderr, "gate %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) correct_ = false;
}

std::string Result::result_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  // A failed gate voids the measurements: report none.
  if (correct_) {
    for (const auto& [name, value] : metrics_) {
      out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
          << json_number(value.first) << ", \"unit\": " << json_string(value.second) << "}";
      first = false;
    }
  }
  out << "}}";
  return out.str();
}

std::string Result::provenance_json() const {
  std::ostringstream out;
  out << "{\"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    out << (first ? "" : ", ") << json_string(key) << ": " << value;
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---- Run window -------------------------------------------------------------

Window::Window(const Args& args) : trace(args.trace), start(Clock::now()) {
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds));
  end = start + span;
  split = trace ? start + span / 2 : end;
}

void report_common(const Args& args, const Latencies& ops, Tracer& tracer, Result& result) {
  if (!args.trace) {
    result.metric("op_p50_ms", median(ops.plain_ms), "ms");
    const double attempted = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
    result.metric("ok_ratio", 1.0 - static_cast<double>(result.failed) / attempted, "ratio");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double traced = median(ops.traced_ms);
    result.metric("trace.op_p50_ms", traced, "ms");
    result.metric("trace.overhead_ms", traced - median(ops.plain_ms), "ms");
    if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", args.trace_out.c_str());
    }
  }
  result.info("ops_untraced", static_cast<double>(ops.plain_ms.size()));
  result.info("ops_traced", static_cast<double>(ops.traced_ms.size()));
  result.info("spans", static_cast<double>(tracer.size()));
  result.info("spans_dropped", static_cast<double>(tracer.dropped()));
}

// ---- Host --------------------------------------------------------------------

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double host_cpu_ms() {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x243f6a8885a308d3ull + static_cast<std::uint64_t>(r);
    for (int i = 0; i < (1 << 24); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    reps.push_back(ms_since(t0));
    volatile std::uint64_t sink = x;
    (void)sink;
  }
  return median(std::move(reps));
}

double host_mem_ms() {
  // A dependent random walk over 64 MB, well beyond any last-level
  // cache: each step waits on DRAM, as the pipeline's hash lookups do.
  // The cycle is fixed (Sattolo's shuffle from a constant seed) and the
  // pages are touched before timing.
  std::vector<std::uint32_t> next(std::size_t{16} << 20);
  for (std::size_t i = 0; i < next.size(); ++i) next[i] = static_cast<std::uint32_t>(i);
  Rng rng{0x6d656d};
  for (std::size_t i = next.size() - 1; i > 0; --i) std::swap(next[i], next[rng.below(i)]);
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t at = 0;
    for (int step = 0; step < (1 << 19); ++step) at = next[at];
    reps.push_back(ms_since(t0));
    volatile std::uint32_t sink = at;
    (void)sink;
  }
  return median(std::move(reps));
}

ScopedLibraryThreads::ScopedLibraryThreads(const char* value) {
  if (const char* prior = std::getenv("GEORANK_THREADS")) {
    had_prior_ = true;
    prior_ = prior;
  }
  ::setenv("GEORANK_THREADS", value, 1);
}

ScopedLibraryThreads::~ScopedLibraryThreads() {
  if (had_prior_) {
    ::setenv("GEORANK_THREADS", prior_.c_str(), 1);
  } else {
    ::unsetenv("GEORANK_THREADS");
  }
}

}  // namespace perfbench
