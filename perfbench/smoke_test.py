#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Run it from the repository root. Every workload run.py knows (the ones in
BENCHMARK.json and the ones only run by hand) runs at tiny shapes (--tiny),
untraced and traced. Each run must name every metric BENCHMARK.json lists
for that mode, with its unit, and report no failed operation (error rate 0).
Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("%s trace=%d exited %d:\n%s" %
                 (workload, trace, out.returncode, out.stderr[-4000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, trace)
            problems = []
            for metric in listed:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append("missing " + metric["name"])
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: unit %s, expected %s" %
                                    (metric["name"], got["unit"], metric["unit"]))
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("error rate %d/%d" %
                                (result["failed"], result["attempted"]))
            if not result["correct"]:
                problems.append("correct is false")
            status = "ok" if not problems else "; ".join(problems)
            print("%-10s trace=%d %3d metrics  %s" %
                  (workload, trace, len(result["metrics"]), status))
            if problems:
                sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
