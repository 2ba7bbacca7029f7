#!/usr/bin/env bash
# Smoke test: build the library and run a 2-generation micro-campaign
# (3 CCAs × 2 modes) end to end, checking the report lands on disk.
#
# Usage: scripts/smoke_campaign.sh [build-dir]
#   CCFUZZ_SANITIZE=1  build with -Dccfuzz_sanitize=ON (ASan + UBSan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-smoke}"
CMAKE_FLAGS=()
if [[ "${CCFUZZ_SANITIZE:-0}" == "1" ]]; then
  CMAKE_FLAGS+=("-Dccfuzz_sanitize=ON")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR" --target quickstart --target fuzz_fairness \
  --target fuzz_coverage --target ccfuzz_tool \
  -j"$(nproc)"

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
"$BUILD_DIR/examples/quickstart" "$OUT/campaign" 2 12

for f in summary.csv summary.json; do
  if [[ ! -f "$OUT/campaign/$f" ]]; then
    echo "smoke campaign FAILED: missing $f" >&2
    exit 1
  fi
done
# Every cell directory must have a history and at least one winner trace.
for d in "$OUT"/campaign/*/; do
  if [[ ! -f "$d/history.csv" || ! -f "$d/winner_0.trace" ]]; then
    echo "smoke campaign FAILED: incomplete cell report in $d" >&2
    exit 1
  fi
done
echo "smoke campaign OK ($(ls -d "$OUT"/campaign/*/ | wc -l) cells)"

# Multi-flow fairness smoke: a 2-flow reno-vs-bbr late-starter campaign must
# run end to end and report per-flow goodputs (a ';'-joined pair) plus the
# JSONL progress stream.
"$BUILD_DIR/examples/fuzz_fairness" "$OUT/fairness" 2 12
if ! grep -q "best_flow_goodputs_mbps" "$OUT/fairness/summary.csv"; then
  echo "fairness smoke FAILED: per-flow goodput column missing" >&2
  exit 1
fi
if ! tail -n +2 "$OUT/fairness/summary.csv" | grep -q ";"; then
  echo "fairness smoke FAILED: expected two ';'-joined flow goodputs" >&2
  exit 1
fi
if ! grep -q '"event":"campaign_end"' "$OUT/fairness/progress.jsonl"; then
  echo "fairness smoke FAILED: progress.jsonl incomplete" >&2
  exit 1
fi
echo "fairness smoke OK"

# Coverage-guided smoke: the MAP-Elites A/B must fill more cells than
# score-only on the same budget (fuzz_coverage exits 2 when it does not) and
# leave a reloadable archive behind. Runs at the example's defaults — the
# budget where the margin is pinned.
"$BUILD_DIR/examples/fuzz_coverage" "$OUT/coverage" >/dev/null
if [[ ! -s "$OUT/coverage/archive.txt" ]]; then
  echo "coverage smoke FAILED: archive.txt missing or empty" >&2
  exit 1
fi
if ! head -1 "$OUT/coverage/archive.txt" | grep -q "ccfuzz-archive v1"; then
  echo "coverage smoke FAILED: archive.txt lacks the v1 header" >&2
  exit 1
fi
echo "coverage smoke OK"

# Crash-resume smoke: start a throttled in-process campaign, SIGKILL it once
# the first checkpoint lands, rerun the same command, and require the resumed
# report to be byte-identical to an uninterrupted reference run.
CCFUZZ="$BUILD_DIR/tools/ccfuzz"
CRASH=(run --workers 0 --generations 4 --population 16)
"$CCFUZZ" "${CRASH[@]}" --output "$OUT/crash-ref" >/dev/null
"$CCFUZZ" "${CRASH[@]}" --output "$OUT/crash" --throttle-ms 200 >/dev/null &
victim_pid=$!
for _ in $(seq 1 500); do
  [[ -f "$OUT/crash/checkpoint/campaign.ckpt" ]] && break
  sleep 0.05
done
if [[ ! -f "$OUT/crash/checkpoint/campaign.ckpt" ]]; then
  echo "crash-resume smoke FAILED: no checkpoint appeared" >&2
  exit 1
fi
kill -KILL "$victim_pid" 2>/dev/null || true
wait "$victim_pid" 2>/dev/null || true
"$CCFUZZ" "${CRASH[@]}" --output "$OUT/crash" >/dev/null
for f in summary.csv summary.json; do
  if ! cmp -s "$OUT/crash/$f" "$OUT/crash-ref/$f"; then
    echo "crash-resume smoke FAILED: $f diverged after kill+resume" >&2
    exit 1
  fi
done
echo "crash-resume smoke OK"

# Distributed-campaign smoke: a 2-worker supervised run must survive one of
# its workers being SIGKILLed mid-generation — the supervisor restarts it
# from its shard checkpoint — and still merge a report byte-identical to the
# single-process run of the same matrix.
MATRIX=(--ccas reno,cubic,bbr --generations 3 --population 12 --islands 2
        --seed 7 --duration-ms 800)
"$CCFUZZ" run --workers 0 --output "$OUT/dist-ref" "${MATRIX[@]}" >/dev/null
"$CCFUZZ" run --workers 2 --output "$OUT/dist" "${MATRIX[@]}" \
  --throttle-ms 200 >/dev/null &
supervisor_pid=$!
victim=""
for _ in $(seq 1 500); do
  for shard in 0 1; do
    d="$OUT/dist/shards/$shard"
    if [[ -f "$d/worker.pid" && -f "$d/checkpoint/campaign.ckpt" ]]; then
      victim="$(cat "$d/worker.pid")"
      break 2
    fi
  done
  sleep 0.05
done
if [[ -z "$victim" ]]; then
  echo "shard smoke FAILED: no killable worker appeared" >&2
  exit 1
fi
kill -KILL "$victim" 2>/dev/null || true
if ! wait "$supervisor_pid"; then
  echo "shard smoke FAILED: supervisor exited nonzero" >&2
  exit 1
fi
if ! grep -q '"event":"worker_restart"' "$OUT/dist/progress.jsonl"; then
  echo "shard smoke FAILED: supervisor never restarted the killed worker" >&2
  exit 1
fi
for f in summary.csv summary.json; do
  if ! cmp -s "$OUT/dist/$f" "$OUT/dist-ref/$f"; then
    echo "shard smoke FAILED: merged $f diverged from single-process run" >&2
    exit 1
  fi
done
echo "shard smoke OK (killed worker $victim; restarted, merged, byte-identical)"

# Resume smoke: the identical command on the finished tree must restore every
# shard from its checkpoint. A shard that degraded to a fresh start would
# rerun its generations and still merge the same bytes, so require that the
# rerun adds no generation events to the feed.
gens_before="$(grep -c '"event":"generation"' "$OUT/dist/progress.jsonl")"
"$CCFUZZ" run --workers 2 --output "$OUT/dist" "${MATRIX[@]}" \
  --throttle-ms 200 >/dev/null
gens_after="$(grep -c '"event":"generation"' "$OUT/dist/progress.jsonl")"
if [[ "$gens_after" -ne "$gens_before" ]]; then
  echo "resume smoke FAILED: the rerun replayed $((gens_after - gens_before))" \
    "generation(s) instead of restoring every shard" >&2
  exit 1
fi
for f in summary.csv summary.json; do
  if ! cmp -s "$OUT/dist/$f" "$OUT/dist-ref/$f"; then
    echo "resume smoke FAILED: $f changed on the no-op rerun" >&2
    exit 1
  fi
done
echo "resume smoke OK (every shard restored; no generation rerun)"

# Chaos smoke: the same 2-worker campaign under a deterministic fault plan —
# each worker's first checkpoint write fails with ENOSPC (typed degrade, no
# abort) and each worker crashes hard (exit 86) right after its second
# completed checkpoint. The supervisor must back off, restart both, and the
# merged report must still be byte-identical to the fault-free reference.
CHAOS_LATCH="$OUT/chaos-latch"
mkdir -p "$CHAOS_LATCH"
CCFUZZ_FAULT_PLAN="latch=$CHAOS_LATCH;worker:enospc@1*1;worker:crash_checkpoint@2*1" \
  "$CCFUZZ" run --workers 2 --output "$OUT/chaos" "${MATRIX[@]}" >/dev/null
if ! grep -q '"event":"worker_backoff"' "$OUT/chaos/progress.jsonl"; then
  echo "chaos smoke FAILED: no backoff restart after the injected crash" >&2
  exit 1
fi
for f in summary.csv summary.json; do
  if ! cmp -s "$OUT/chaos/$f" "$OUT/dist-ref/$f"; then
    echo "chaos smoke FAILED: merged $f diverged under fault injection" >&2
    exit 1
  fi
done
if ! "$CCFUZZ" doctor --output "$OUT/chaos" >/dev/null; then
  echo "chaos smoke FAILED: doctor found problems after a clean finish" >&2
  exit 1
fi
echo "chaos smoke OK (ENOSPC + crash-at-checkpoint injected; report byte-identical)"

# Triage smoke: turn the reference campaign's winners into finding bundles,
# require every bundle's minimized trace to be no larger than its original
# (with at least one strictly smaller), and replay the corpus twice — both
# passes must exit 0, i.e. every bundle reproduces bit-deterministically.
"$CCFUZZ" triage --output "$OUT/dist-ref" "${MATRIX[@]}" \
  --minimize-evals 48 >/dev/null
bundles=0
shrunk=0
for d in "$OUT"/dist-ref/findings/*/; do
  [[ -f "$d/manifest.json" ]] || continue
  bundles=$((bundles + 1))
  orig="$(sed -n 's/^  "original_events": \([0-9]*\),$/\1/p' "$d/manifest.json")"
  mini="$(sed -n 's/^  "minimized_events": \([0-9]*\),$/\1/p' "$d/manifest.json")"
  if [[ -z "$orig" || -z "$mini" || "$mini" -gt "$orig" ]]; then
    echo "triage smoke FAILED: $d minimized ($mini) exceeds original ($orig)" >&2
    exit 1
  fi
  [[ "$mini" -lt "$orig" ]] && shrunk=$((shrunk + 1))
done
if [[ "$bundles" -eq 0 ]]; then
  echo "triage smoke FAILED: no finding bundles written" >&2
  exit 1
fi
if [[ "$shrunk" -eq 0 ]]; then
  echo "triage smoke FAILED: no bundle minimized below its original" >&2
  exit 1
fi
for pass in 1 2; do
  if ! "$CCFUZZ" replay --output "$OUT/dist-ref" "${MATRIX[@]}" >/dev/null; then
    echo "triage smoke FAILED: replay pass $pass drifted" >&2
    exit 1
  fi
done
if ! "$CCFUZZ" doctor --output "$OUT/dist-ref" "${MATRIX[@]}" >/dev/null; then
  echo "triage smoke FAILED: doctor rejected the findings corpus" >&2
  exit 1
fi
echo "triage smoke OK ($bundles bundles, $shrunk minimized; replayed twice)"

# Cheap benchmark-harness smoke: prove the micro benches still build and run
# (full regression numbers come from scripts/bench_regression.sh). Exit 3
# means google-benchmark is unavailable — the only failure we tolerate.
bench_status=0
BENCH_SMOKE=1 scripts/bench_regression.sh "$BUILD_DIR-bench" || bench_status=$?
if [[ $bench_status -eq 3 ]]; then
  echo "bench smoke SKIPPED (google-benchmark unavailable)"
elif [[ $bench_status -ne 0 ]]; then
  echo "bench smoke FAILED (exit $bench_status)" >&2
  exit 1
fi
