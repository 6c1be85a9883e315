#!/usr/bin/env bash
# Runs the kernel micro-benchmarks (bench_kernels), the Figure-22
# similarity-selection benchmark (bench_fig22_selection) and the profile,
# serving and transport benches, and merges their results into one JSON
# record with a `context` block (git SHA, build type, nproc, compiler, date).
# The record goes to <build_dir>/BENCH_kernels.json; a full (non-quick) run
# also appends it, without the per-operator profile trees, as one line of
# BENCH_history.jsonl at the repo root, so runs accumulate rather than
# replace each other. The checked-in BENCH_kernels.json is refreshed only by
# naming it as the output.
#
# Usage: bench/run_benches.sh [build_dir] [output.json]
#        (defaults: <repo>/build, <build_dir>/BENCH_kernels.json)
#
# Environment:
#   SIMDB_BENCH_SCALE  record-count multiplier for the dataset benches
#   SIMDB_BENCH_QUICK  =1: reduced iterations + small dataset (CI smoke run;
#                      numbers are NOT meaningful, only the output shape is)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="${2:-$BUILD/BENCH_kernels.json}"
HISTORY="$ROOT/BENCH_history.jsonl"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

KERNELS_BIN="$BUILD/bench/bench_kernels"
SCHEDULER_BIN="$BUILD/bench/bench_scheduler"
VERIFY_BIN="$BUILD/bench/bench_verify_overhead"
FIG22_BIN="$BUILD/bench/bench_fig22_selection"
PROFILE_BIN="$BUILD/bench/bench_profile"
SERVING_BIN="$BUILD/bench/bench_serving"
TRANSPORT_BIN="$BUILD/bench/bench_transport"
for bin in "$KERNELS_BIN" "$SCHEDULER_BIN" "$VERIFY_BIN" "$FIG22_BIN" \
           "$PROFILE_BIN" "$SERVING_BIN" "$TRANSPORT_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "missing benchmark binary: $bin (build the tree first)" >&2
    exit 1
  fi
done

KERNEL_FLAGS=()
QUICK="${SIMDB_BENCH_QUICK:-0}"
if [[ "$QUICK" == "1" ]]; then
  KERNEL_FLAGS+=(--benchmark_min_time=0.01)
  export SIMDB_BENCH_SCALE="${SIMDB_BENCH_SCALE:-0.05}"
fi

echo "== bench_kernels =="
"$KERNELS_BIN" "${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"}" \
  --benchmark_out="$TMP/kernels.json" --benchmark_out_format=json

echo "== bench_scheduler =="
"$SCHEDULER_BIN" "${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"}" \
  --benchmark_out="$TMP/scheduler.json" --benchmark_out_format=json

echo "== bench_verify_overhead =="
"$VERIFY_BIN" "${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"}" \
  --benchmark_out="$TMP/verify.json" --benchmark_out_format=json

echo "== bench_fig22_selection =="
"$FIG22_BIN" | tee "$TMP/fig22.txt"

echo "== bench_profile =="
PROFILE_FLAGS=(--json "$TMP/profile.json")
if [[ "$QUICK" == "1" ]]; then
  PROFILE_FLAGS+=(--quick)
fi
"$PROFILE_BIN" "${PROFILE_FLAGS[@]}"

echo "== bench_serving =="
SERVING_FLAGS=(--json "$TMP/serving.json")
if [[ "$QUICK" == "1" ]]; then
  SERVING_FLAGS+=(--quick)
fi
"$SERVING_BIN" "${SERVING_FLAGS[@]}"

echo "== bench_transport =="
TRANSPORT_FLAGS=(--json "$TMP/transport.json")
if [[ "$QUICK" == "1" ]]; then
  TRANSPORT_FLAGS+=(--quick)
fi
"$TRANSPORT_BIN" "${TRANSPORT_FLAGS[@]}"

cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$BUILD/CMakeCache.txt" 2>/dev/null | head -n 1
}
CXX_PATH="$(cache_value CMAKE_CXX_COMPILER)"
COMPILER="$("${CXX_PATH:-c++}" --version 2>/dev/null | head -n 1 || true)"
GIT_SHA="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY="$(git -C "$ROOT" status --porcelain 2>/dev/null | head -c 1)"

python3 - "$TMP/kernels.json" "$TMP/scheduler.json" "$TMP/verify.json" \
  "$TMP/fig22.txt" "$TMP/profile.json" "$TMP/serving.json" \
  "$TMP/transport.json" "$OUT" "$QUICK" "$HISTORY" "$GIT_SHA" \
  "${GIT_DIRTY:+dirty}" "$(cache_value CMAKE_BUILD_TYPE)" "$(nproc)" \
  "$COMPILER" <<'PY'
import datetime, json, platform, sys

(kernels_path, scheduler_path, verify_path, fig22_path, profile_path,
 serving_path, transport_path, out_path, quick, history_path, git_sha,
 dirty, build_type, nproc, compiler) = sys.argv[1:16]
with open(kernels_path) as f:
    kernels = json.load(f)
with open(scheduler_path) as f:
    scheduler = json.load(f)
with open(verify_path) as f:
    verify = json.load(f)
with open(fig22_path) as f:
    fig22_lines = [line.rstrip("\n") for line in f]
with open(profile_path) as f:
    query_profile = json.load(f)
with open(serving_path) as f:
    serving = json.load(f)
with open(transport_path) as f:
    transport = json.load(f)

context = {
    "git_sha": git_sha,
    "git_dirty": dirty == "dirty",
    "build_type": build_type,
    "nproc": int(nproc),
    "compiler": compiler,
    "host": platform.node(),
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"),
}
merged = {
    "generated_by": "bench/run_benches.sh",
    "context": context,
    "quick_mode": quick == "1",
    "bench_kernels": kernels,
    "bench_scheduler": scheduler,
    "bench_verify_overhead": verify,
    "bench_fig22_selection": {"raw": fig22_lines},
    "query_profile": query_profile,
    "bench_serving": serving,
    "bench_transport": transport,
}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

names = [b.get("name", "") for b in kernels.get("benchmarks", [])]
print(f"wrote {out_path}: {len(names)} kernel benchmarks, "
      f"{len(fig22_lines)} fig22 output lines")

# Quick-mode numbers are not meaningful, so only full runs join the history.
if quick != "1":
    entry = dict(merged)
    entry["query_profile"] = {
        "queries": [
            {"name": q["name"],
             "wall_seconds": q["profile"].get("wall_seconds"),
             "compute_seconds": q["profile"].get("compute_seconds"),
             "operators": len(q["profile"].get("operators", []))}
            for q in query_profile.get("queries", [])],
        "overhead": query_profile.get("overhead"),
    }
    with open(history_path, "a") as f:
        f.write(json.dumps(entry, separators=(",", ":")) + "\n")
    print(f"appended the run to {history_path}")
PY
