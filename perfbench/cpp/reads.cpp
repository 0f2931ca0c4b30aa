#include "reads.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

#include "serve/http_client.hpp"

namespace perfbench {

using namespace georank;

std::vector<std::string> read_keys(const serve::Snapshot& snapshot, std::uint64_t seed) {
  static constexpr const char* kMetrics[] = {"cci", "ccn", "ahi", "ahn"};
  std::vector<std::string> keys;
  std::vector<bgp::Asn> asns;
  for (const core::CountryMetrics& m : snapshot.countries) {
    const std::string cc = m.country.to_string();
    for (const char* metric : kMetrics) {
      for (const char* k : {"10", "100", "1000"}) {
        keys.push_back("/v1/rankings?country=" + cc + "&metric=" + metric + "&k=" + k);
      }
      keys.push_back("/v1/delta?country=" + cc + "&metric=" + metric + "&top=10");
    }
    for (const rank::Ranking* r : {&m.cci, &m.ccn, &m.ahi, &m.ahn}) {
      for (const auto& entry : r->entries()) asns.push_back(entry.asn);
    }
  }
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  for (bgp::Asn asn : asns) keys.push_back("/v1/as/" + std::to_string(asn));
  keys.push_back("/v1/health");

  Rng rng{seed ^ 0x6b657973ull};
  for (std::size_t i = keys.size() - 1; i > 0; --i) std::swap(keys[i], keys[rng.below(i + 1)]);
  return keys;
}

ReadStats run_reads(std::uint16_t port, const std::vector<std::string>& keys,
                    const std::vector<std::string>* expected, double zipf_s,
                    std::uint64_t seed, std::size_t connections, std::size_t warmup,
                    const Window& window, Tracer* tracer) {
  const Zipf zipf{keys.size(), zipf_s};
  ReadStats total;
  std::mutex merge;
  std::vector<std::jthread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ReadStats mine;
      Rng rng{seed * 0x9e3779b97f4a7c15ull + c + 1};
      serve::HttpClient client;
      if (!client.connect("127.0.0.1", port)) {
        ++mine.attempted;
        ++mine.failed;
      } else {
        for (std::size_t i = 0;; ++i) {
          const bool measured = i >= warmup;
          if (measured && !window.open()) break;
          const std::size_t key = zipf.draw(rng);
          const bool traced = window.traced_now();
          const Clock::time_point t0 = Clock::now();
          std::optional<serve::HttpClientResponse> response;
          {
            Tracer::Scope s{traced ? tracer : nullptr, "http.get", i};
            response = client.get(keys[key]);
          }
          const double us = ms_since(t0) * 1000.0;
          if (!measured) continue;
          ++mine.attempted;
          if (!response || response->status < 200 || response->status >= 300) {
            ++mine.failed;
          } else if (expected != nullptr && response->body != (*expected)[key]) {
            ++mine.failed;
            ++mine.mismatched;
          } else {
            mine.samples.push_back({t0, us, traced});
          }
        }
      }
      std::lock_guard lock{merge};
      total.attempted += mine.attempted;
      total.failed += mine.failed;
      total.mismatched += mine.mismatched;
      total.samples.insert(total.samples.end(), mine.samples.begin(), mine.samples.end());
    });
  }
  for (std::jthread& t : threads) t.join();
  return total;
}

double report_reads(const ReadStats& reads, const Window& window, Result& result) {
  std::vector<double> us;
  for (const ReadSample& s : reads.samples) {
    if (!s.traced) us.push_back(s.us);
  }
  const double seconds = std::chrono::duration<double>(window.split - window.start).count();
  const double p50 = median(us);
  result.metric("serve.read_p50_us", p50, "us");
  result.metric("serve.read_p99_us", quantile(us, 0.99), "us");
  result.metric("serve.reads_per_s", static_cast<double>(us.size()) / seconds, "1/s");
  return p50;
}

}  // namespace perfbench
