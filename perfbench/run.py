#!/usr/bin/env python3
r"""Two-clock benchmark of offload-mm: builds the program from source and
runs one workload.

    python3 perfbench/run.py --workload fig2_frame --seed 1 --seconds 10 \
        --trace 0

Run it from the root of a checkout. It builds perfbench/twoclock with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs the workload
once, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Around the run it enforces:

  * the pinned program: OMM_HOST_THREADS unset, no sanitizer build;
  * the output checks (twoclock's failed count);
  * the determinism gate: every simulated-clock value of a seed must equal
    the values of every earlier run of that seed of the same sources,
    traced or not (stored under $CARGO_TARGET_DIR/determinism/);
  * a self-test of both checks: a dispatch_storm run with one output word
    corrupted must fail, and the determinism gate, given a store holding
    this run's result with one counter flipped, must name that counter.

Any failure prints correct=false and exits non-zero. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig2_frame", "tenant_serve", "dispatch_storm")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures (once) and builds twoclock; returns the binary path."""
    for var in ("CXXFLAGS", "LDFLAGS"):
        if "sanitize" in os.environ.get(var, ""):
            die(f"{var} asks for a sanitizer; the benchmark measures "
                "optimised builds only")
    cmake_dir = out / "cmake"
    cache = cmake_dir / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    cache_text = cache.read_text()
    if "sanitize" in cache_text:
        die("the build tree was configured with a sanitizer")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "twoclock",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return cmake_dir / "twoclock"


def source_hash():
    """Digest of the sources that decide the simulated numbers."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix != ".md":
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_twoclock(binary, workload, seed, seconds, trace, out_dir,
                 corrupt=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    if corrupt:
        cmd.append("--corrupt-output")
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if not lines:
        die(f"twoclock printed no result (exit {res.returncode})", 1)
    return res.returncode, json.loads(lines[-1])


def sim_mismatches(stored, fresh):
    """Keys whose simulated-clock values differ between two results."""
    keys = set(stored) | set(fresh)
    return sorted(k for k in keys if stored.get(k) != fresh.get(k))


def determinism_gate(store_path, workload, seed, res):
    """Compares against, then extends, the store of earlier runs. Observer
    counts exist only in traced runs and are compared among those."""
    store = {}
    if store_path.exists():
        store = json.loads(store_path.read_text())
    fresh = {f"{workload}/{seed}": res["sim"]}
    if res["sim_observed"]:
        fresh[f"{workload}/{seed}/observed"] = res["sim_observed"]
    problems = []
    for key, sim in fresh.items():
        if key not in store:
            store[key] = sim
            continue
        diff = sim_mismatches(store[key], sim)
        if diff:
            problems.append(f"seed {seed} differs from an earlier run in: "
                            + ", ".join(diff))
    if not problems:
        store_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(store_path)
    return problems


def self_test(binary, workload, seed, res, out_dir):
    """Checks that the checks can fail. Returns a list of problems."""
    problems = []
    code, corrupt = run_twoclock(binary, "dispatch_storm", seed, 0, 0,
                                 out_dir / "selftest", corrupt=True)
    if code == 0 or corrupt.get("failed", 0) < 1:
        problems.append("a corrupted dispatch_storm output was not caught")
    # A store holding this run's result with one counter flipped: the
    # determinism gate must name that counter when it compares the run.
    key = next(k for k, v in sorted(res["sim"].items())
               if isinstance(v, (int, float)))
    flipped = dict(res["sim"])
    flipped[key] += 1
    store = out_dir / "selftest" / "flipped_store.json"
    store.write_text(json.dumps({f"{workload}/{seed}": flipped}))
    found = determinism_gate(store, workload, seed, res)
    if not any(key in p.split(": ", 1)[-1].split(", ") for p in found):
        problems.append(f"a stored result with {key} flipped passed the "
                        "determinism gate")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if "OMM_HOST_THREADS" in os.environ:
        die("OMM_HOST_THREADS is set; the benchmark measures the serial "
            "engine only")
    if not (ROOT / "src" / "sim" / "Machine.h").exists():
        die(f"program sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        die(f"building the benchmark failed: {e}", 1)
    src = source_hash()
    run_dir = out / "runs" / args.workload

    code, res = run_twoclock(binary, args.workload, args.seed, args.seconds,
                             args.trace, run_dir)
    problems = [f"twoclock exited {code}"] if code else []
    problems += [f"determinism gate: {g}" for g in res["gate_failures"]]
    problems += determinism_gate(out / "determinism" / f"{src}.json",
                                 args.workload, args.seed, res)
    problems += self_test(binary, args.workload, args.seed, res, run_dir)

    values = dict(res["end_to_end"], **res["per_layer"])
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    meta = dict(res["meta"], commit=commit(), source_hash=src,
                workload=args.workload, trace=args.trace)
    print(json.dumps({"meta": meta}), flush=True)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    correct = not problems and res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
