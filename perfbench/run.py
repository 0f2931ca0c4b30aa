#!/usr/bin/env python3
"""georank benchmark: builds the georank_bench binary in perfbench/ and runs one workload.

    python3 perfbench/run.py --workload batch|live|serve|whatif \
        --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py --smoke

--seconds defaults to BENCHMARK.json's run_seconds.

A run prints a provenance line and then, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end ones; with
--trace 1 its per_layer ones, where a layer the workload bypasses reads 0,
and the spans go to .bench_build/traces/ as Chrome trace-event JSON.

--smoke runs every workload, untraced and traced, on tiny worlds for a
few seconds each and fails unless every gate passes, every end-to-end
metric appears in every workload with its declared unit, and every
per-layer metric is measured by at least one workload.

Exit status is 0 on success and non-zero, with no result line, when the
build fails, a correctness gate fails or the run misbehaves.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "georank_bench")
WORKLOADS = ("batch", "live", "serve", "whatif")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds georank_bench; compiler output goes to
    stderr. `cmake --build` re-configures by itself when a CMakeLists
    changes."""
    steps = [["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def source_digest():
    """SHA-1 over the library sources georank_bench was built from."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics():
    spec = benchmark_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def run_bench(workload, seed, seconds, trace, smoke=False):
    """Runs georank_bench once; returns (exit code, provenance, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--rev", git_rev()]
    if smoke:
        cmd.append("--smoke")
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: georank_bench exited {done.returncode} without a result")
    provenance = json.loads(lines[-2])
    provenance["provenance"]["source_digest"] = source_digest()
    return done.returncode, provenance, json.loads(lines[-1])


def check_metrics(result, trace, end_to_end, per_layer):
    """Checks names and units against BENCHMARK.json; for traced runs,
    fills the layers the workload bypasses with 0. Returns the names the
    binary itself measured."""
    declared = per_layer if trace else end_to_end
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            raise RuntimeError(f"metric {name} [{metric['unit']}] is not declared so")
    measured = set(metrics)
    missing = sorted(set(declared) - measured)
    if not trace and missing:
        raise RuntimeError("end-to-end metrics missing: " + ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    return measured


def smoke():
    end_to_end, per_layer = declared_metrics()
    measured_layers = set()
    for workload in WORKLOADS:
        for trace in (False, True):
            code, _, result = run_bench(workload, 1, 2, trace, smoke=True)
            label = f"{workload} trace={int(trace)}"
            if code != 0 or not result["correct"] or result["failed"] != 0:
                raise RuntimeError(f"{label}: exit {code}, result {result}")
            if result["attempted"] < 1:
                raise RuntimeError(f"{label}: attempted nothing")
            measured = check_metrics(result, trace, end_to_end, per_layer)
            if trace:
                measured_layers |= measured
            log(f"smoke ok: {label}, {len(measured)} metrics measured")
    unmeasured = sorted(set(per_layer) - measured_layers)
    if unmeasured:
        raise RuntimeError("per-layer metrics no workload measures: " + ", ".join(unmeasured))
    log("smoke: PASS")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window; default BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        build()
        if args.smoke:
            smoke()
            return 0
        end_to_end, per_layer = declared_metrics()
        code, provenance, result = run_bench(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
        if code != 0 or not result["correct"]:
            log(f"{args.workload}: correctness gate failed (exit {code})")
            return code or 1
        check_metrics(result, bool(args.trace), end_to_end, per_layer)
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        return 1
    print(json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
