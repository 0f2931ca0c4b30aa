// georank_bench, the benchmark binary. perfbench/run.py builds it and runs
//
//   georank_bench --workload batch|live|serve|whatif --seed N --seconds S
//                 --trace 0|1 [--smoke] [--trace-out FILE] [--rev REV]
//
// It prints a provenance line and then, as the last line of stdout, the
// result object. Exit status 1 means a correctness gate failed (the
// result then carries no metrics), 2 a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "georank_bench: %s\nusage: georank_bench --workload batch|live|serve|whatif "
               "--seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE] [--rev REV]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--rev") {
      rev = value;
    } else {
      return usage("unknown flag");
    }
  }

  if (args.seconds == 0.0) return usage("missing --seconds");

  void (*workload)(const Args&, Tracer&, Result&) = nullptr;
  if (args.workload == "batch") workload = run_batch;
  if (args.workload == "live") workload = run_live;
  if (args.workload == "serve") workload = run_serve;
  if (args.workload == "whatif") workload = run_whatif;
  if (workload == nullptr) return usage("unknown --workload");

  Result result;
  const char* threads = std::getenv("GEORANK_THREADS");
  result.info("git_rev", rev);
  result.info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  result.info("compiler", GEORANK_BENCH_COMPILER);
  result.info("build_type", GEORANK_BENCH_BUILD_TYPE);
  result.info("georank_threads", threads ? threads : "");
  result.info("seed", static_cast<double>(args.seed));
  result.info("workload", args.workload);
  result.info("seconds", args.seconds);
  result.info("trace", args.trace ? 1.0 : 0.0);
  result.info("smoke", args.smoke ? 1.0 : 0.0);

  // Host-drift controls bracket the run; the median of both readings is
  // reported so a reader can tell a busy host from a code change.
  const double cpu_before = host_cpu_ms();
  const double mem_before = host_mem_ms();
  // The memory control's 64 MB buffer is freed now; without the reset it
  // would be the peak_rss_mb of every workload smaller than it.
  result.info("peak_rss_reset", reset_peak_rss() ? 1.0 : 0.0);
  Tracer tracer;
  try {
    workload(args, tracer, result);
  } catch (const std::exception& e) {
    result.gate(false, std::string{"workload threw: "} + e.what());
  }
  const double cpu_ms = (cpu_before + host_cpu_ms()) / 2.0;
  const double mem_ms = (mem_before + host_mem_ms()) / 2.0;
  result.info("host.cpu_ms", cpu_ms);
  result.info("host.mem_ms", mem_ms);
  if (args.trace) {
    result.metric("host.cpu_ms", cpu_ms, "ms");
    result.metric("host.mem_ms", mem_ms, "ms");
  }

  std::printf("%s\n%s\n", result.provenance_json().c_str(), result.result_json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
