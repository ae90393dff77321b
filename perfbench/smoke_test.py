#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. Builds the benchmark, then runs every
workload at a tiny shot count in both modes and checks that each run
exits 0, passes its correctness gate, and prints exactly the metrics
BENCHMARK.json declares (end-to-end untraced, per-layer traced), each
with its declared unit.
"""

import json
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            label = "%s --trace %s" % (workload, trace)
            before = len(problems)
            proc = subprocess.run(
                RUN + ["--workload", workload, "--seed", "7",
                       "--seconds", "0", "--trace", trace, "--smoke"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (label,
                                                        sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append("%s: gate failed (%d of %d)" % (
                    label, result["failed"], result["attempted"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics %s, expected %s" % (
                    label, got, expected[trace]))
            print("ok  " if len(problems) == before else "FAIL", label,
                  flush=True)
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
