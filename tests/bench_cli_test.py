#!/usr/bin/env python3
"""Regression tests for the shared bench main's CLI contract.

Part of offload-mm, a reproduction of "The Impact of Diverse Memory
Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).

bench/BenchMain.cpp is the entry point every bench binary shares, and
CI gates filtered runs against the committed full-sweep snapshots, so
its edge cases are pinned here, for each --bench binary given:

  - a --filter matching zero benchmarks exits 2 and writes no JSON
    (the vacuous-sweep bug: an empty results file used to exit 0 and
    sail through every downstream gate);
  - --list (and the native --benchmark_list_tests spelling) prints the
    registration-order row names, exits 0, and never writes JSON (an
    empty listing artifact used to clobber real BENCH_*.json files);
  - a valid subset --filter writes a well-formed omm-bench-v1 file
    holding exactly the matching rows, in enumeration order;
  - row independence: each row of a filtered run is byte-equal (as a
    line, trailing comma stripped) to the same row of an unfiltered run
    of the binary. This is what makes a filtered run comparable to a
    committed snapshot. Two subsets are checked: the last-registered
    benchmark family, which every other family precedes in the full
    sweep, and every second row, each run without the row before it;
    state leaking from earlier rows shows in their bytes.

Usage:
    python3 tests/bench_cli_test.py --bench BIN [--bench BIN ...]
        (fast bench binaries; pick at least one that runs per-row
        reference simulations)
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

PASSES = []


def ok(what):
    PASSES.append(what)
    print(f"ok: {what}")


def run(binary, *argv, cwd):
    return subprocess.run([binary, *argv], capture_output=True,
                          text=True, cwd=cwd)


def row_lines(path):
    """Each row's JSON line in the file, keyed by name, comma stripped."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [l.strip().rstrip(",") for l in f]
    rows = {}
    for line in lines:
        if line.startswith('{"name": '):
            rows[json.loads(line)["name"]] = line
    return rows


def check_binary(binary):
    if not os.path.exists(binary):
        sys.exit(f"FAIL: {binary} not built")
    name = os.path.basename(binary)

    with tempfile.TemporaryDirectory(prefix="bench-cli-") as tmp:
        # --list prints rows, exits 0, writes nothing.
        for flag in ("--list", "--benchmark_list_tests=true"):
            proc = run(binary, flag, cwd=tmp)
            if proc.returncode != 0:
                sys.exit(f"FAIL: {name} {flag} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            rows = [l for l in proc.stdout.splitlines() if l.strip()]
            if not rows:
                sys.exit(f"FAIL: {name} {flag} printed no rows")
            if os.listdir(tmp):
                sys.exit(f"FAIL: {name} {flag} left files behind: "
                         f"{os.listdir(tmp)}")
            ok(f"{name} {flag}: {len(rows)} rows, no JSON artifact")

        # Vacuous filter: exit 2, no JSON.
        proc = run(binary, "--filter", "no_such_benchmark_xyz", cwd=tmp)
        if proc.returncode != 2:
            sys.exit(f"FAIL: {name} vacuous --filter exited "
                     f"{proc.returncode}, want 2 "
                     f"(stderr: {proc.stderr.strip()!r})")
        if "no benchmarks ran" not in proc.stderr:
            sys.exit(f"FAIL: {name} vacuous --filter diagnostic missing, "
                     f"got: {proc.stderr.strip()!r}")
        if os.listdir(tmp):
            sys.exit(f"FAIL: {name} vacuous --filter wrote files: "
                     f"{os.listdir(tmp)}")
        ok(f"{name} vacuous --filter exits 2 with no JSON")

        # Same through the native regex spelling.
        proc = run(binary, "--benchmark_filter=no_such_benchmark_xyz",
                   cwd=tmp)
        if proc.returncode != 2 or os.listdir(tmp):
            sys.exit(f"FAIL: {name} vacuous --benchmark_filter exited "
                     f"{proc.returncode} (files: {os.listdir(tmp)})")
        ok(f"{name} vacuous --benchmark_filter exits 2 with no JSON")

        # A real subset run through the literal-substring --filter:
        # exit 0, well-formed JSON, exactly the matching rows in
        # enumeration order.
        listed = run(binary, "--list", cwd=tmp).stdout.splitlines()
        listed = [l for l in listed if l.strip()]
        family = listed[-1].split("/")[0] + "/"
        want = [r for r in listed if family in r]
        out = os.path.join(tmp, "subset.json")
        proc = run(binary, f"--json={out}", "--filter", family, cwd=tmp)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {name} subset run exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        with open(out, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("schema") != "omm-bench-v1" or not doc["benchmarks"]:
            sys.exit(f"FAIL: {name} subset run wrote a malformed "
                     f"results file")
        names = [b["name"] for b in doc["benchmarks"]]
        if names != want:
            sys.exit(f"FAIL: {name} --filter {family!r} wrote rows "
                     f"{names}, want {want} in enumeration order")
        ok(f"{name} subset --filter run writes well-formed ordered JSON "
           f"({len(names)} rows)")

        # Row independence: every second row, run without the row
        # before it, and the family subset above, match the full run's
        # bytes.
        alternate = listed[1::2]
        spaced = os.path.join(tmp, "alternate.json")
        regex = "^(" + "|".join(re.escape(r) for r in alternate) + ")$"
        proc = run(binary, f"--json={spaced}", f"--benchmark_filter={regex}",
                   cwd=tmp)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {name} alternate-row run exited "
                     f"{proc.returncode}:\n{proc.stderr}")
        full = os.path.join(tmp, "full.json")
        proc = run(binary, f"--json={full}", cwd=tmp)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {name} full run exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        full_rows = row_lines(full)
        for path, rows in ((out, want), (spaced, alternate)):
            filtered = row_lines(path)
            if list(filtered) != rows:
                sys.exit(f"FAIL: {name} {os.path.basename(path)} holds rows "
                         f"{list(filtered)}, want {rows}, one per line")
            for row, line in filtered.items():
                if full_rows.get(row) != line:
                    sys.exit(f"FAIL: {name} row {row} differs between the "
                             f"filtered and the full run:\n  filtered: "
                             f"{line}\n  full:     {full_rows.get(row)}")
        ok(f"{name} {len(want) + len(alternate)} filtered rows byte-equal "
           f"to the full run")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, action="append",
                    help="a built bench binary (pick a fast one); "
                         "repeat to check several")
    args = ap.parse_args()
    for binary in args.bench:
        check_binary(os.path.abspath(binary))

    print(f"PASS: {len(PASSES)} bench CLI contract checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
