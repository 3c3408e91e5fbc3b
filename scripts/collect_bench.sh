#!/usr/bin/env bash
# Runs the benchmark harnesses that support --json and aggregates their
# tables into three machine-readable files:
#   BENCH_core.json  — core pipeline benches (scale, parallelism, incremental,
#                      flat partition micro-kernels, the OFDClean beam search)
#   BENCH_serve.json — the service-mode bench (warm sessions, update latency,
#                      closed-loop tail latency, drain)
#   BENCH_storage.json — the snapshot bench (cold compile vs snapshot
#                      open time)
# Each file is a JSON array of {"bench", "columns", "rows"} tables.
#
# Output goes to the repo root by default; set BENCH_OUT_DIR to write
# somewhere else (CI writes fresh JSON to a scratch dir and compares it
# against the committed baselines with tools/bench_gate.py).
#
# Usage: scripts/collect_bench.sh [build-dir] [-- extra bench flags...]

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1
BUILD_DIR="${1:-build}"
OUT_DIR="${BENCH_OUT_DIR:-.}"
mkdir -p "$OUT_DIR"
shift || true
[ "${1:-}" = "--" ] && shift

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Wraps a stream of NDJSON table lines into one JSON array.
ndjson_to_array() {
  local first=1
  printf '['
  while IFS= read -r line; do
    [ -z "$line" ] && continue
    [ "$first" = 1 ] || printf ',\n '
    first=0
    printf '%s' "$line"
  done < "$1"
  printf ']\n'
}

CORE_BENCHES=(bench_micro_core bench_exp1_scale_n_tuples bench_ext_parallel bench_ext_incremental bench_clean)
: > "$TMP/core.ndjson"
for b in "${CORE_BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$b"
  if [ ! -x "$bin" ]; then
    echo "skipping $b (not built)" >&2
    continue
  fi
  echo "running $b ..." >&2
  # A crashing or CHECK-failing bench must fail the collection (and CI)
  # instead of silently producing a truncated aggregate the gate would then
  # misread as shape drift.
  "$bin" --json "$TMP/$b.ndjson" "$@" > /dev/null || {
    status=$?
    echo "error: $b exited with status $status" >&2
    exit "$status"
  }
  cat "$TMP/$b.ndjson" >> "$TMP/core.ndjson"
done
ndjson_to_array "$TMP/core.ndjson" > "$OUT_DIR/BENCH_core.json"
echo "wrote $OUT_DIR/BENCH_core.json ($(wc -l < "$TMP/core.ndjson") tables)" >&2

SERVE_BIN="$BUILD_DIR/bench/bench_serve"
if [ -x "$SERVE_BIN" ]; then
  echo "running bench_serve ..." >&2
  "$SERVE_BIN" --json "$TMP/serve.ndjson" "$@" > /dev/null || {
    status=$?
    echo "error: bench_serve exited with status $status" >&2
    exit "$status"
  }
  ndjson_to_array "$TMP/serve.ndjson" > "$OUT_DIR/BENCH_serve.json"
  echo "wrote $OUT_DIR/BENCH_serve.json ($(wc -l < "$TMP/serve.ndjson") tables)" >&2
else
  echo "skipping bench_serve (not built)" >&2
fi

STORAGE_BIN="$BUILD_DIR/bench/bench_storage"
if [ -x "$STORAGE_BIN" ]; then
  echo "running bench_storage ..." >&2
  "$STORAGE_BIN" --json "$TMP/storage.ndjson" "$@" > /dev/null || {
    status=$?
    echo "error: bench_storage exited with status $status" >&2
    exit "$status"
  }
  ndjson_to_array "$TMP/storage.ndjson" > "$OUT_DIR/BENCH_storage.json"
  echo "wrote $OUT_DIR/BENCH_storage.json ($(wc -l < "$TMP/storage.ndjson") tables)" >&2
else
  echo "skipping bench_storage (not built)" >&2
fi
