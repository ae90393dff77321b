#!/usr/bin/env python3
"""Record the repository benchmark's end-to-end numbers in BENCH_e2e.json.

    python3 tools/bench_e2e.py [--seconds S] [--out PATH]
                               [--checkout DIR] [--compare PATH]

Runs `perfbench/run.py --trace 0` once per workload of BENCHMARK.json
(fig14-mwpm, fig15-lpr, sweep-uf-adaptive) from the root of a checkout
(--checkout, default: this repository) and adds one run to the
trajectory file: the checkout's commit, the seed, the seconds per
workload and every workload's metrics plus its attempted/failed
counts. The seed is fixed (SEED), so every run in the file measures
the same shot streams. A checkout with uncommitted changes is recorded
as "<sha>-dirty", so it never replaces the record of the commit it
started from. A run of the same commit replaces the earlier one; runs
are kept in the order they were first added.

--compare prints every metric next to the newest run of a trajectory
file as it was before this run (e.g. the committed copy) with the
relative change. The script exits non-zero only when a workload failed
its correctness gate (`failed > 0`, `correct` false, or no result
line); slower or faster numbers never fail it.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "qec.bench_e2e.v1"
SEED = 41


def git(checkout, *args):
    out = subprocess.run(["git", "-C", checkout] + list(args),
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def commit_of(checkout):
    try:
        sha = git(checkout, "rev-parse", "HEAD")
        dirty = git(checkout, "status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + "-dirty" if dirty else sha


def run_workload(checkout, name, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {}, "error": "no result (exit %d)"
                % proc.returncode}
    result = json.loads(lines[-1])
    return {
        "correct": bool(result.get("correct")),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {k: v["value"]
                    for k, v in result.get("metrics", {}).items()},
    }


def load(path):
    if not os.path.isfile(path):
        return {"schema": SCHEMA, "runs": []}
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != SCHEMA:
        sys.exit("bench_e2e: %s is not a %s file" % (path, SCHEMA))
    return data


def compare(run, reference):
    print("vs %s:" % reference["commit"][:12])
    for name, wl in run["workloads"].items():
        ref = reference["workloads"].get(name, {}).get("metrics", {})
        for metric, value in sorted(wl["metrics"].items()):
            old = ref.get(metric)
            if old:
                print("  %-18s %-12s %12.6g -> %12.6g  (%+.1f%%)"
                      % (name, metric, old, value,
                         100.0 * (value - old) / old))
            else:
                print("  %-18s %-12s %12s -> %12.6g"
                      % (name, metric, "-", value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_e2e.json"))
    parser.add_argument("--checkout", default=ROOT)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    # Read the reference before --out is rewritten (they may be the
    # same file).
    reference = load(args.compare)["runs"] if args.compare else []

    run = {
        "commit": commit_of(args.checkout),
        "seed": SEED,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = False
    for name in workloads:
        wl = run_workload(args.checkout, name, SEED, args.seconds)
        run["workloads"][name] = wl
        if not wl["correct"] or wl["failed"] > 0:
            failed = True
            print("bench_e2e: %s failed its gate: %s" % (name, wl),
                  file=sys.stderr)

    data = load(args.out)
    runs = data["runs"]
    for i, old in enumerate(runs):
        if old["commit"] == run["commit"]:
            runs[i] = run
            break
    else:
        runs.append(run)
    with open(args.out, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    print("wrote %s (%d run(s))" % (args.out, len(runs)))

    if reference:
        compare(run, reference[-1])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
