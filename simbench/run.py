#!/usr/bin/env python3
"""SimDB benchmark: builds simbench from source and runs one workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 simbench/run.py --workload all        # every workload, one after another

Run it from anywhere inside a SimDB source tree; everything it writes goes
under <repo>/.bench_build/ (build tree, engine data, traces, history).

stdout: a provenance/diagnostics line, then, as the last line, the result
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics (and writes the span
trace). stderr: build output and a table of every metric with its unit and
direction. The exit code is non-zero when the tree cannot be built, the run
fails, or any answer is wrong. See simbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "simbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "simbench")

# BENCHMARK.json gates join-batch and join-serve; select-serve and
# ingest-mixed run on request (README.md says why they are not gated).
WORKLOADS = ["join-batch", "join-serve", "select-serve", "ingest-mixed"]

# name -> (unit, better). Must match BENCHMARK.json (checked at start-up).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "jaccard_cpu_ms": ("ms", "lower"),
    "ed_cpu_ms": ("ms", "lower"),
    "disk_bytes_per_user_byte": ("B/B", "lower"),
}

_OPS = ["HASH-JOIN", "HASH-GROUP", "SORT", "ASSIGN", "SELECT", "UNNEST",
        "HASH-EXCHANGE", "BROADCAST-EXCHANGE", "GATHER", "MERGE-GATHER",
        "INVERTED-SEARCH", "PRIMARY-LOOKUP"]

PER_LAYER = {
    "serving.queue_wait_ms.p50": ("ms", "lower"),
    "serving.queue_wait_ms.p99": ("ms", "lower"),
    "serving.exec_ms.p50": ("ms", "lower"),
    "serving.shed": ("count", "lower"),
    "serving.peak_queue_depth": ("count", "lower"),
    "bench.generator_lag_ms.p99": ("ms", "lower"),
    "aql.parse_ms": ("ms", "lower"),
    "aql.translate_ms": ("ms", "lower"),
    "algebricks.optimize_ms": ("ms", "lower"),
    "core.aqlplus_ms": ("ms", "lower"),
    "algebricks.jobgen_ms": ("ms", "lower"),
    "algebricks.rules_fired": ("count", "lower"),
    "hyracks.exec_ms": ("ms", "lower"),
    "hyracks.tasks": ("count", "lower"),
    "hyracks.batch_row_frac": ("frac", "higher"),
    "hyracks.exchange.local_bytes": ("bytes", "lower"),
    "hyracks.exchange.remote_bytes": ("bytes", "lower"),
    "hyracks.speedup": ("x", "higher"),
    "hyracks.compute_inflation": ("x", "lower"),
    "storage.posting_cache.hit_rate": ("frac", "higher"),
    "storage.invsearch.postings_read": ("count", "lower"),
    "storage.invsearch.candidates": ("count", "lower"),
    "storage.candidates_per_result": ("ratio", "lower"),
    "storage.lookup.probes": ("count", "lower"),
    "storage.insert_us.p50": ("us", "lower"),
    "storage.index_build_s": ("s", "lower"),
    "storage.disk_bytes": ("bytes", "lower"),
    "similarity.verify_s": ("s", "lower"),
    "similarity.verify_ns_per_pair": ("ns", "lower"),
    "cluster.makespan_s": ("s", "lower"),
    "cluster.network_modeled_s": ("s", "lower"),
    "observability.trace_overhead_frac": ("frac", "lower"),
}
for _op in _OPS:
    PER_LAYER["hyracks.op.%s.s" % _op] = ("s", "lower")
    PER_LAYER["hyracks.op.%s.rows_out" % _op] = ("rows", "lower")

RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_benchmark_json():
    """BENCHMARK.json, when present, must list exactly this catalogue."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    if declared != END_TO_END:
        die("BENCHMARK.json end_to_end differs from simbench/run.py")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != PER_LAYER:
        die("BENCHMARK.json per_layer differs from simbench/run.py")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        die("BENCHMARK.json names a workload simbench/run.py does not know")


def build():
    """Configures once, then (re)builds the simbench target."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die("no SimDB source tree at %s (expected CMakeLists.txt and src/)"
            % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD_ROOT, "simbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
            if rc != 0:
                die("cmake configure failed")
        rc = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "--target", "simbench", "-j", jobs],
            stdout=sys.stderr)
        if rc != 0:
            die("build failed")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def source_digest():
    """SHA-256 over the engine and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, provenance):
    """Runs the binary; returns (exit code, details line, result line,
    parsed result)."""
    env = dict(os.environ)
    env.pop("SIMDB_TRANSPORT", None)  # the modeled transport, always
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR, "--git-sha", provenance[0],
           "--source-digest", provenance[1]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        die("%s printed no result (exit %d)" % (workload, proc.returncode), 1)
    result = json.loads(lines[-1])
    expected = PER_LAYER if trace else END_TO_END
    if proc.returncode == 0 and set(result["metrics"]) != set(expected):
        die("%s reported metrics %s, expected %s" % (
            workload, sorted(set(result["metrics"]) ^ set(expected)),
            "the catalogue"), 1)
    with open(os.path.join(BUILD_DIR, "history.jsonl"), "a") as f:
        f.write(json.dumps({"run": json.loads(lines[-2]), "result": result})
                + "\n")
    return proc.returncode, lines[-2], lines[-1], result


def print_table(workload, result, trace):
    catalogue = PER_LAYER if trace else END_TO_END
    print("== %s (%s) correct=%s attempted=%d failed=%d" % (
        workload, "per-layer" if trace else "end-to-end", result["correct"],
        result["attempted"], result["failed"]), file=sys.stderr)
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        better = catalogue.get(name, ("", "?"))[1]
        print("  %-36s %16.6g %-6s (%s is better)" % (
            name, m["value"], m["unit"], better), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    check_benchmark_json()
    build()
    provenance = (git_sha(), source_digest())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for workload in workloads:
        code, details, line, result = run_one(
            workload, args.seed, args.seconds, args.trace == 1, provenance)
        print_table(workload, result, args.trace == 1)
        print(details)
        print(line, flush=True)
        if code != 0 or not result["correct"]:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
