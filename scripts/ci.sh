#!/usr/bin/env bash
# CI for georank, in tiers:
#
#   tier-1   plain build (warnings-as-errors, header self-containment
#            checks) + full ctest + georank_lint against the baseline
#   asan     AddressSanitizer build, full suite
#   ubsan    UndefinedBehaviorSanitizer build, robustness-heavy filters
#   tsan     ThreadSanitizer build, concurrency-heavy filters: the
#            parallel_for and Pipeline load-vs-query stress tests, the
#            chunked MrtStreamLoader, the RobustnessHarness, and the
#            serve-layer HTTP loopback reload-under-load test
#   serve    end-to-end query service check: build a snapshot with the
#            CLI, boot `georank serve` on an ephemeral port, curl every
#            endpoint and assert both the happy-path schema and the
#            negative status codes (404 unknown country, 400 bad ASN)
#   whatif   counterfactual end to end: run two canned scenarios (a
#            de-peering and a hijack) through `georank whatif --out`,
#            boot `georank serve --dir` (which attaches the what-if
#            engine), POST the same scenario texts to /v1/whatif and
#            byte-compare each response against the CLI's JSON, then
#            POST both again in reverse order at top=4 (fresh LRU keys,
#            so the engine reruns from its shared baseline) and compare
#            those too; also asserts the 400/405 contract on malformed
#            input
#   scale    internet-preset smoke: generate a 10x world with the CLI
#            (`--preset internet`), build a snapshot from it under
#            /usr/bin/time -v, and assert the peak RSS stays under the
#            sharded pipeline's memory ceiling
#   live     incremental-pipeline equivalence: generate a world, replay
#            its update archive through `georank live`, and assert the
#            final GRSNAP01 file is byte-identical to a batch
#            `georank snapshot` of the same archive, once with the
#            inferred clique and once with the generator's clique pinned
#            (that pass must take both the delta path and the day-close
#            fallback)
#   recovery crash-safety end to end: feed half an update archive into a
#            journaled `georank live` through a fifo, `kill -9` it once
#            the journal holds the burst, restart with `--recover` on
#            the rest of the archive, and byte-compare the recovered
#            GRSNAP01 against an uninterrupted reference run
#   perfbench the benchmark harness end to end: `perfbench/run.py
#            --smoke` builds perfbench from this checkout's src/ and runs
#            every BENCHMARK.json workload, untraced and traced, on tiny
#            worlds with each workload's correctness gate
#   tidy     clang-tidy over src/ (opt-in: --clang-tidy; skips politely
#            when the tool is not installed)
#
# Usage: scripts/ci.sh [--skip-asan] [--skip-ubsan] [--skip-tsan]
#                      [--skip-serve] [--skip-whatif] [--skip-scale]
#                      [--skip-live] [--skip-recovery] [--skip-lint]
#                      [--skip-lint-graph] [--clang-tidy]
#
# --skip-lint-graph keeps the per-file lint rules but turns off the
# cross-TU graph rules (layering, lock-order) — the escape hatch for a
# deliberately-cyclic migration branch. The full run also writes the
# findings as a SARIF artifact to build/lint.sarif.
#
# Each sanitizer stage builds into its own tree (build-asan, build-ubsan,
# build-tsan) so it never dirties the primary build directory. The
# header self-containment OBJECT library is only compiled in the plain
# tier — self-containment is independent of instrumentation.
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_ASAN=0
SKIP_UBSAN=0
SKIP_TSAN=0
SKIP_SERVE=0
SKIP_WHATIF=0
SKIP_SCALE=0
SKIP_LIVE=0
SKIP_RECOVERY=0
SKIP_LINT=0
SKIP_LINT_GRAPH=0
RUN_TIDY=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-ubsan) SKIP_UBSAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-serve) SKIP_SERVE=1 ;;
    --skip-whatif) SKIP_WHATIF=1 ;;
    --skip-scale) SKIP_SCALE=1 ;;
    --skip-live) SKIP_LIVE=1 ;;
    --skip-recovery) SKIP_RECOVERY=1 ;;
    --skip-lint) SKIP_LINT=1 ;;
    --skip-lint-graph) SKIP_LINT_GRAPH=1 ;;
    --clang-tidy) RUN_TIDY=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> tier-1: configure + build (WERROR + header checks)"
cmake -B build -S . -DGEORANK_WERROR=ON -DGEORANK_HEADER_CHECKS=ON > /dev/null
cmake --build build -j "$(nproc)"

if [[ "$SKIP_LINT" -eq 0 ]]; then
  LINT_ARGS=(--root . --baseline scripts/lint_baseline.txt --sarif build/lint.sarif)
  if [[ "$SKIP_LINT_GRAPH" -eq 1 ]]; then
    echo "==> tier-1: georank_lint, per-file rules only (--skip-lint-graph)"
    LINT_ARGS+=(--no-graph)
  else
    echo "==> tier-1: georank_lint (full engine incl. layering + lock-order; SARIF -> build/lint.sarif)"
  fi
  ./build/tools/georank_lint "${LINT_ARGS[@]}"
else
  echo "==> lint stage skipped (--skip-lint)"
fi

echo "==> tier-1: full test suite"
ctest --test-dir build --output-on-failure

echo "==> ingest robustness (fault corpus, strict mode, bit-identity)"
ctest --test-dir build --output-on-failure -R "MrtStream|MrtText|UpdateText|AsPath"

echo "==> degraded-data robustness (health tiers, fault plans, fuzz)"
ctest --test-dir build --output-on-failure \
  -R "Confidence|DegradationPolicy|DataHealth|FaultPlan|Robustness|StructuredFaults"

if [[ "$SKIP_SERVE" -eq 0 ]]; then
  echo "==> serve tier: snapshot build + live HTTP endpoints over loopback"
  SERVE_TMP="$(mktemp -d)"
  SERVE_PID=""
  serve_cleanup() {
    if [[ -n "$SERVE_PID" ]]; then
      kill "$SERVE_PID" 2> /dev/null || true
      wait "$SERVE_PID" 2> /dev/null || true
    fi
    rm -rf "$SERVE_TMP"
  }
  trap serve_cleanup EXIT

  ./build/tools/georank generate --out "$SERVE_TMP/world" --mini --seed 21 > /dev/null
  ./build/tools/georank snapshot --dir "$SERVE_TMP/world" \
    --out "$SERVE_TMP/world.grsnap" --id 7 --label ci > /dev/null
  ./build/tools/georank serve --snapshot "$SERVE_TMP/world.grsnap" --port 0 \
    > "$SERVE_TMP/serve.log" 2>&1 &
  SERVE_PID=$!

  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$SERVE_TMP/serve.log")"
    [[ -n "$PORT" ]] && break
    kill -0 "$SERVE_PID" 2> /dev/null || { cat "$SERVE_TMP/serve.log"; echo "server died before listening"; exit 1; }
    sleep 0.1
  done
  [[ -n "$PORT" ]] || { cat "$SERVE_TMP/serve.log"; echo "server never reported a port"; exit 1; }
  BASE="http://127.0.0.1:$PORT"

  serve_grep() {  # serve_grep <target> <needle>: 200 + body contains needle
    local body
    body="$(curl -sf "$BASE$1")" || { echo "serve tier FAIL: GET $1 not 2xx"; exit 1; }
    grep -q "$2" <<< "$body" || { echo "serve tier FAIL: $1 body lacks $2"; echo "$body"; exit 1; }
  }
  serve_status() {  # serve_status <target> <code>
    local code
    code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE$1")"
    [[ "$code" == "$2" ]] || { echo "serve tier FAIL: $1 -> $code (want $2)"; exit 1; }
  }

  serve_grep "/v1/health" '"countries"'
  serve_grep "/v1/health" '"tiers"'
  serve_grep "/v1/rankings?country=AU&metric=cci&k=5" '"cci"'
  serve_grep "/v1/delta?country=AU" '"agreement"'
  serve_grep "/metrics" 'georank_requests_total'
  ASN="$(curl -sf "$BASE/v1/rankings?country=AU&k=1" \
    | sed -n 's/.*"asn":\([0-9]*\).*/\1/p')"
  [[ -n "$ASN" ]] || { echo "serve tier FAIL: no ASN in rankings body"; exit 1; }
  serve_grep "/v1/as/$ASN" '"countries"'
  serve_status "/v1/rankings?country=ZZ" 404   # well-formed but unknown
  serve_status "/v1/rankings?country=zzz" 400  # not a country code at all
  serve_status "/v1/as/notanumber" 400
  serve_status "/v1/nope" 404
  serve_cleanup
  SERVE_PID=""
  trap - EXIT
  echo "serve tier OK (port $PORT, ASN $ASN)"
else
  echo "==> serve stage skipped (--skip-serve)"
fi

if [[ "$SKIP_WHATIF" -eq 0 ]]; then
  echo "==> whatif tier: counterfactual CLI vs POST /v1/whatif (byte compare)"
  WHATIF_TMP="$(mktemp -d)"
  WHATIF_PID=""
  whatif_cleanup() {
    if [[ -n "$WHATIF_PID" ]]; then
      kill "$WHATIF_PID" 2> /dev/null || true
      wait "$WHATIF_PID" 2> /dev/null || true
    fi
    rm -rf "$WHATIF_TMP"
  }
  trap whatif_cleanup EXIT

  ./build/tools/georank generate --out "$WHATIF_TMP/world" --mini --seed 21 > /dev/null
  # Two canned scenarios over the mini world: a country-level de-peering
  # and a prefix hijack by the DE incumbent.
  printf 'name ci-depeer\nseed 3\ndepeer AU US\n' > "$WHATIF_TMP/depeer.txt"
  printf 'name ci-hijack\nseed 3\nhijack 16.0.0.0/16 by 3320\n' > "$WHATIF_TMP/hijack.txt"

  # CLI side. --id pins the snapshot identity so the JSON is
  # byte-comparable with what the server (booted with the same --id)
  # computes for the same scenario text.
  for SC in depeer hijack; do
    ./build/tools/georank whatif --dir "$WHATIF_TMP/world" \
      --scenario "$WHATIF_TMP/$SC.txt" --id 7 --top 5 \
      --out "$WHATIF_TMP/$SC.json" > "$WHATIF_TMP/$SC.report"
    grep -q '"snapshot_id":7' "$WHATIF_TMP/$SC.json" \
      || { echo "whatif tier FAIL: $SC.json lacks snapshot id"; exit 1; }
    grep -q '"shards_kept"' "$WHATIF_TMP/$SC.json" \
      || { echo "whatif tier FAIL: $SC.json lacks memo stats"; exit 1; }
  done

  # Server side: serving from the data directory attaches the engine.
  ./build/tools/georank serve --dir "$WHATIF_TMP/world" --port 0 --id 7 \
    > "$WHATIF_TMP/serve.log" 2>&1 &
  WHATIF_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$WHATIF_TMP/serve.log")"
    [[ -n "$PORT" ]] && break
    kill -0 "$WHATIF_PID" 2> /dev/null || { cat "$WHATIF_TMP/serve.log"; echo "server died before listening"; exit 1; }
    sleep 0.1
  done
  [[ -n "$PORT" ]] || { cat "$WHATIF_TMP/serve.log"; echo "server never reported a port"; exit 1; }
  BASE="http://127.0.0.1:$PORT"

  for SC in depeer hijack; do
    curl -sf --data-binary @"$WHATIF_TMP/$SC.txt" "$BASE/v1/whatif?top=5" \
      -o "$WHATIF_TMP/$SC.http" \
      || { echo "whatif tier FAIL: POST /v1/whatif ($SC) not 2xx"; exit 1; }
    cmp "$WHATIF_TMP/$SC.json" "$WHATIF_TMP/$SC.http" \
      || { echo "whatif tier FAIL: $SC endpoint response differs from CLI JSON"; exit 1; }
  done
  # Second pass, reverse order at top=4: new LRU keys, so the engine
  # runs again from the baseline world the checkpoint shares with the
  # two counterfactuals above. A write through that shared world shows
  # as a diff against a fresh CLI run.
  for SC in hijack depeer; do
    ./build/tools/georank whatif --dir "$WHATIF_TMP/world" \
      --scenario "$WHATIF_TMP/$SC.txt" --id 7 --top 4 \
      --out "$WHATIF_TMP/$SC.top4.json" > /dev/null
    curl -sf --data-binary @"$WHATIF_TMP/$SC.txt" "$BASE/v1/whatif?top=4" \
      -o "$WHATIF_TMP/$SC.top4.http" \
      || { echo "whatif tier FAIL: second POST /v1/whatif ($SC) not 2xx"; exit 1; }
    cmp "$WHATIF_TMP/$SC.top4.json" "$WHATIF_TMP/$SC.top4.http" \
      || { echo "whatif tier FAIL: second-pass $SC response differs from CLI JSON"; exit 1; }
  done

  # Contract: malformed scenarios are 400, GET on the POST route is 405.
  CODE="$(printf 'depeer AU AU\n' \
    | curl -s -o /dev/null -w '%{http_code}' --data-binary @- "$BASE/v1/whatif")"
  [[ "$CODE" == "400" ]] \
    || { echo "whatif tier FAIL: malformed scenario -> $CODE (want 400)"; exit 1; }
  CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/whatif")"
  [[ "$CODE" == "405" ]] \
    || { echo "whatif tier FAIL: GET /v1/whatif -> $CODE (want 405)"; exit 1; }
  whatif_cleanup
  WHATIF_PID=""
  trap - EXIT
  echo "whatif tier OK (port $PORT, 2 scenarios x 2 passes byte-identical CLI vs endpoint)"
else
  echo "==> whatif stage skipped (--skip-whatif)"
fi

if [[ "$SKIP_SCALE" -eq 0 ]]; then
  echo "==> scale tier: 10x internet-preset world + snapshot build under RSS ceiling"
  SCALE_TMP="$(mktemp -d)"
  trap 'rm -rf "$SCALE_TMP"' EXIT

  ./build/tools/georank generate --out "$SCALE_TMP/world" \
    --preset internet --scale 10 > /dev/null

  # Ceiling for the snapshot build over the ~850k-path 10x world. The
  # sharded pipeline peaks well under 2 GB here; a regression that
  # gathers global rows per country would blow straight through this.
  SCALE_RSS_CEILING_KB=$((4 * 1024 * 1024))
  PEAK_KB=""
  if [[ -x /usr/bin/time ]]; then
    /usr/bin/time -v -o "$SCALE_TMP/time.log" \
      ./build/tools/georank snapshot --dir "$SCALE_TMP/world" \
      --out "$SCALE_TMP/world.grsnap" --id 10 --label scale-smoke > /dev/null
    PEAK_KB="$(sed -n 's/.*Maximum resident set size (kbytes): //p' "$SCALE_TMP/time.log")"
  else
    # No GNU time in this environment: sample the child's VmHWM (it is
    # monotonic, so the last sample before exit is the peak).
    ./build/tools/georank snapshot --dir "$SCALE_TMP/world" \
      --out "$SCALE_TMP/world.grsnap" --id 10 --label scale-smoke > /dev/null &
    SCALE_PID=$!
    PEAK_KB=0
    while kill -0 "$SCALE_PID" 2> /dev/null; do
      KB="$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\).*/\1/p' \
        "/proc/$SCALE_PID/status" 2> /dev/null || true)"
      [[ -n "$KB" && "$KB" -gt "$PEAK_KB" ]] && PEAK_KB="$KB"
      sleep 0.2
    done
    wait "$SCALE_PID" || { echo "scale tier FAIL: snapshot build failed"; exit 1; }
  fi
  [[ -s "$SCALE_TMP/world.grsnap" ]] \
    || { echo "scale tier FAIL: no snapshot produced"; exit 1; }
  [[ -n "$PEAK_KB" ]] || { echo "scale tier FAIL: could not read peak RSS"; exit 1; }
  if [[ "$PEAK_KB" -gt "$SCALE_RSS_CEILING_KB" ]]; then
    echo "scale tier FAIL: peak RSS ${PEAK_KB} kB exceeds ceiling ${SCALE_RSS_CEILING_KB} kB"
    exit 1
  fi
  rm -rf "$SCALE_TMP"
  trap - EXIT
  echo "scale tier OK (peak RSS ${PEAK_KB} kB, ceiling ${SCALE_RSS_CEILING_KB} kB)"
else
  echo "==> scale stage skipped (--skip-scale)"
fi

if [[ "$SKIP_LIVE" -eq 0 ]]; then
  echo "==> live tier: incremental update replay vs batch snapshot (byte compare)"
  LIVE_TMP="$(mktemp -d)"
  trap 'rm -rf "$LIVE_TMP"' EXIT

  ./build/tools/georank generate --out "$LIVE_TMP/world" --mini --seed 33 \
    --days 4 > /dev/null
  # Drop ribs.txt so BOTH sides consume updates.txt: identical entry
  # ordering into the sanitizer means float accumulation order matches,
  # which is what makes byte-compare (not just semantic compare) fair.
  rm "$LIVE_TMP/world/ribs.txt"

  # Pass 1, the default setup: no --clique, so both sides infer the
  # clique and every live flush re-sanitizes in full.
  ./build/tools/georank snapshot --dir "$LIVE_TMP/world" \
    --out "$LIVE_TMP/batch.grsnap" --id 11 --label live-ci --created 1617235200 \
    > /dev/null
  ./build/tools/georank live --dir "$LIVE_TMP/world" --batch 750 \
    --out "$LIVE_TMP/live.grsnap" --id 11 --label live-ci --created 1617235200 \
    > "$LIVE_TMP/live.log"
  grep -q "replay done" "$LIVE_TMP/live.log" \
    || { cat "$LIVE_TMP/live.log"; echo "live tier FAIL: replay did not finish"; exit 1; }
  FLUSHES="$(grep -c 'flush -> snapshot' "$LIVE_TMP/live.log" || true)"
  [[ "$FLUSHES" -gt 1 ]] \
    || { cat "$LIVE_TMP/live.log"; echo "live tier FAIL: expected multiple incremental flushes, got $FLUSHES"; exit 1; }
  cmp "$LIVE_TMP/batch.grsnap" "$LIVE_TMP/live.grsnap" \
    || { echo "live tier FAIL: incremental snapshot differs from batch recompute"; exit 1; }

  # Pass 2 pins the generator's clique on both sides. An inferred clique
  # reads the final day's paths, so only a pinned one lets the live side
  # re-sanitize incrementally. Each flush names its path: within a day
  # the burst goes through Pipeline::apply_delta; the first flush loads,
  # and a flush after a day close falls back to re-sanitizing the
  # window, so with ~400 updates a day and --batch 750 both must show up.
  ./build/tools/georank snapshot --dir "$LIVE_TMP/world" \
    --clique "$LIVE_TMP/world/clique.txt" \
    --out "$LIVE_TMP/batch-clique.grsnap" --id 11 --label live-ci --created 1617235200 \
    > /dev/null
  ./build/tools/georank live --dir "$LIVE_TMP/world" --batch 750 \
    --clique "$LIVE_TMP/world/clique.txt" \
    --out "$LIVE_TMP/live-clique.grsnap" --id 11 --label live-ci --created 1617235200 \
    > "$LIVE_TMP/live-clique.log"
  grep -q "replay done" "$LIVE_TMP/live-clique.log" \
    || { cat "$LIVE_TMP/live-clique.log"; echo "live tier FAIL: pinned-clique replay did not finish"; exit 1; }
  DELTAS="$(grep -c 'path delta' "$LIVE_TMP/live-clique.log" || true)"
  FULLS="$(grep -c 'path full' "$LIVE_TMP/live-clique.log" || true)"
  [[ "$DELTAS" -ge 1 ]] \
    || { cat "$LIVE_TMP/live-clique.log"; echo "live tier FAIL: no flush took the delta path"; exit 1; }
  [[ "$FULLS" -ge 2 ]] \
    || { cat "$LIVE_TMP/live-clique.log"; echo "live tier FAIL: no flush fell back after a day close"; exit 1; }
  cmp "$LIVE_TMP/batch-clique.grsnap" "$LIVE_TMP/live-clique.grsnap" \
    || { echo "live tier FAIL: pinned-clique incremental snapshot differs from batch recompute"; exit 1; }
  rm -rf "$LIVE_TMP"
  trap - EXIT
  echo "live tier OK ($FLUSHES incremental flushes; pinned clique: $DELTAS delta, $FULLS full; snapshots byte-identical)"
else
  echo "==> live stage skipped (--skip-live)"
fi

if [[ "$SKIP_RECOVERY" -eq 0 ]]; then
  echo "==> recovery tier: kill -9 a journaled live run, --recover, byte compare"
  REC_TMP="$(mktemp -d)"
  REC_PID=""
  rec_cleanup() {
    exec 9>&- 2> /dev/null || true
    if [[ -n "$REC_PID" ]]; then
      kill -9 "$REC_PID" 2> /dev/null || true
      wait "$REC_PID" 2> /dev/null || true
    fi
    rm -rf "$REC_TMP"
  }
  trap rec_cleanup EXIT

  ./build/tools/georank generate --out "$REC_TMP/world" --mini --seed 33 \
    --days 4 > /dev/null
  TOTAL="$(wc -l < "$REC_TMP/world/updates.txt")"
  HALF=$((TOTAL / 2))
  [[ "$HALF" -gt 1200 ]] \
    || { echo "recovery tier FAIL: archive too small ($TOTAL lines)"; exit 1; }

  # Uninterrupted reference with pinned snapshot identity: same binary,
  # same flags, nobody killed.
  ./build/tools/georank live --dir "$REC_TMP/world" --batch 750 \
    --out "$REC_TMP/reference.grsnap" --id 11 --label rec-ci \
    --created 1617235200 > /dev/null

  # Doomed run: a fifo feeds the first half, held open so the process
  # blocks on input instead of draining; every accepted update lands in
  # the journal (fsync each — a kill -9 test is about durability).
  mkfifo "$REC_TMP/feed"
  ./build/tools/georank live --dir "$REC_TMP/world" \
    --updates "$REC_TMP/feed" --batch 750 \
    --journal-dir "$REC_TMP/journal" --checkpoint-every 997 --fsync each \
    > "$REC_TMP/doomed.log" 2>&1 &
  REC_PID=$!
  exec 9> "$REC_TMP/feed"
  head -n "$HALF" "$REC_TMP/world/updates.txt" >&9

  # Poll the read-only journal scan until the burst is durably absorbed,
  # then kill without mercy. A kill landing between a journal append and
  # the buffer absorb is exactly the kAfterJournalAppend fault point the
  # recovery harness proves bit-identical.
  RECORDS=0
  for _ in $(seq 1 300); do
    RECORDS="$(./build/tools/georank journal --dir "$REC_TMP/journal" 2> /dev/null \
      | sed -n 's/^records \([0-9]*\) .*/\1/p' || true)"
    [[ "${RECORDS:-0}" -ge "$HALF" ]] && break
    kill -0 "$REC_PID" 2> /dev/null \
      || { cat "$REC_TMP/doomed.log"; echo "recovery tier FAIL: live run died before the burst"; exit 1; }
    sleep 0.1
  done
  [[ "${RECORDS:-0}" -ge "$HALF" ]] \
    || { cat "$REC_TMP/doomed.log"; echo "recovery tier FAIL: journal never reached $HALF records (got ${RECORDS:-0})"; exit 1; }
  kill -9 "$REC_PID"
  wait "$REC_PID" 2> /dev/null || true
  REC_PID=""
  exec 9>&-

  # Restart on the remaining half. recover() loads the checkpoint the
  # doomed run published and replays the journal suffix; the stream
  # resumes at the journal's next sequence number (= line HALF+1).
  tail -n +"$((HALF + 1))" "$REC_TMP/world/updates.txt" > "$REC_TMP/rest.txt"
  ./build/tools/georank live --dir "$REC_TMP/world" \
    --updates "$REC_TMP/rest.txt" --batch 750 \
    --journal-dir "$REC_TMP/journal" --recover --checkpoint-every 997 \
    --out "$REC_TMP/recovered.grsnap" --id 11 --label rec-ci \
    --created 1617235200 > "$REC_TMP/recover.log"
  grep -q "recovered: checkpoint" "$REC_TMP/recover.log" \
    || { cat "$REC_TMP/recover.log"; echo "recovery tier FAIL: no recovery line"; exit 1; }
  cmp "$REC_TMP/reference.grsnap" "$REC_TMP/recovered.grsnap" \
    || { echo "recovery tier FAIL: recovered snapshot differs from uninterrupted run"; exit 1; }
  RECLINE="$(grep '^recovered:' "$REC_TMP/recover.log")"
  rec_cleanup
  trap - EXIT
  echo "recovery tier OK ($RECLINE; snapshots byte-identical)"
else
  echo "==> recovery stage skipped (--skip-recovery)"
fi

echo "==> perfbench tier: every benchmark workload on tiny worlds"
python3 perfbench/run.py --smoke

if [[ "$RUN_TIDY" -eq 1 ]]; then
  if command -v clang-tidy > /dev/null 2>&1; then
    echo "==> clang-tidy (profile: .clang-tidy) over src/"
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    find src -name '*.cpp' -print0 \
      | xargs -0 -n 8 clang-tidy -p build --quiet
  else
    echo "==> clang-tidy not installed; stage skipped"
  fi
fi

if [[ "$SKIP_ASAN" -eq 0 ]]; then
  echo "==> AddressSanitizer build + test"
  cmake -B build-asan -S . -DGEORANK_SANITIZE=address \
    -DGEORANK_HEADER_CHECKS=OFF > /dev/null
  cmake --build build-asan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure
else
  echo "==> AddressSanitizer stage skipped (--skip-asan)"
fi

if [[ "$SKIP_UBSAN" -eq 0 ]]; then
  echo "==> UndefinedBehaviorSanitizer build + robustness filters"
  cmake -B build-ubsan -S . -DGEORANK_SANITIZE=undefined \
    -DGEORANK_HEADER_CHECKS=OFF > /dev/null
  cmake --build build-ubsan -j "$(nproc)"
  # The robustness surfaces do the spiciest arithmetic (seed mixing,
  # NDCG float edge cases, fuzzed parsers), the sanitizer's flat dedup
  # and interner tables do open-addressing index arithmetic, and the
  # dense-id cone and hegemony kernels do CSR offset and dense-index
  # arithmetic, the trimmed average offsets past the unpadded zeros, and
  # the loop check scans runs by index; run them all under UBSan.
  ctest --test-dir build-ubsan --output-on-failure \
    -R "Confidence|DegradationPolicy|DataHealth|FaultPlan|Robustness|StructuredFaults|FuzzTest|Ndcg|Stability|PathSanitizer|IncrementalSanitizer|ApplyDelta|RankKernels|CustomerCone|Hegemony|TrimmedAverage|AsPath|Figure"
else
  echo "==> UndefinedBehaviorSanitizer stage skipped (--skip-ubsan)"
fi

if [[ "$SKIP_TSAN" -eq 0 ]]; then
  echo "==> ThreadSanitizer build + concurrency filters"
  cmake -B build-tsan -S . -DGEORANK_SANITIZE=thread \
    -DGEORANK_HEADER_CHECKS=OFF > /dev/null
  cmake --build build-tsan -j "$(nproc)"
  # Everything that spawns or synchronizes threads: parallel_for and its
  # stress suite, Pipeline (all_countries fan-out, memo cache,
  # load-vs-query reload stress), the chunked MrtStreamLoader, the
  # RobustnessHarness trial fan-out, and the HTTP loopback suite
  # (client threads hammering while snapshots hot-swap).
  ctest --test-dir build-tsan --output-on-failure \
    -R "ParallelFor|PipelineStress|Pipeline\.|MrtStream|Robustness|HttpLoopback|ApplyDelta\.QueriesRace"
else
  echo "==> ThreadSanitizer stage skipped (--skip-tsan)"
fi

echo "CI PASS"
