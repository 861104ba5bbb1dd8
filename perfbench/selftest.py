#!/usr/bin/env python3
"""Self-test of the serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json briefly, once with --trace 0
and once with --trace 1, and checks that each end-to-end (respectively
per-layer) metric is printed by name with its unit, both on its metric
line and in the final JSON.  Then runs every workload with a deliberately
corrupted reference and checks that the run fails: non-zero exit and
"correct": false.  Exits 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", trace, *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, lines, result, done.stderr


def check_metrics(workload, trace, specs):
    code, lines, result, stderr = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0 or result is None or result.get("correct") is not True:
        return f"{where}: run failed (exit {code})\n{stderr[-2000:]}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(result)}"
    if set(result["metrics"]) != {s["name"] for s in specs}:
        return f"{where}: metrics {sorted(result['metrics'])}"
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"][name]
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            return f"{where}: {name} reported as {got}"
        pattern = re.compile(rf"^metric {re.escape(name)}\s+\S+ "
                             rf"{re.escape(unit)} \(n=\d+\)$")
        if not any(pattern.match(line) for line in lines):
            return f"{where}: no metric line for {name} [{unit}]"
    return None


def check_corruption(workload):
    code, _, result, _ = run(workload, "0", "--corrupt-reference")
    if code == 0 or result is None or result.get("correct") is not False:
        return (f"{workload}: a corrupted reference was not caught "
                f"(exit {code}, result {result})")
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    checks = []
    for workload in (w["name"] for w in bench["workloads"]):
        checks.append((f"{workload} end-to-end metrics",
                       lambda w=workload: check_metrics(w, "0",
                                                        bench["end_to_end"])))
        checks.append((f"{workload} per-layer metrics",
                       lambda w=workload: check_metrics(w, "1",
                                                        bench["per_layer"])))
        checks.append((f"{workload} corrupted reference",
                       lambda w=workload: check_corruption(w)))
    for name, check in checks:
        error = check()
        print(f"{'FAIL' if error else 'ok  '} {name}", flush=True)
        if error:
            print(error, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
