#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: working tree against a base commit.

    python3 scripts/ab_bench.py --base HEAD~1 --workload growth --pairs 10
    python3 scripts/ab_bench.py --base main --workload window-poll --seed 7

The base commit's files are exported with ``git archive`` into a temporary
directory (removed afterwards), so the repository itself is not touched.
Each pair runs ``perfbench/run.py`` once in the working tree and once in the
base checkout, with the same workload, seed and run length; which side runs
first alternates from pair to pair, so a slow drift of the host does not
favour one side. Both sides run the working tree's benchmark command from
``BENCHMARK.json`` against their own ``src/``.

For every metric the report gives each side's median and quartiles, the
change's median relative to the base's, and the fraction of pairs the
change won (ties count for neither side). Failed queries are reported per
side. Only the standard library and the local git are used.

Beside the wall times, the report gives each side's work counts on one
fixed stream set: ``harness.run_episode`` on episodes 0..COUNT_EPISODES-1
of the run seed, run once in each side's own tree, with the engine's
``work_counters`` summed over the streams and every query checked against
the reference. On a seeded workload these counts repeat exactly, so they
show whether a change moved the algorithm's work independent of host
drift; on a threaded workload they vary from run to run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_EPISODES = 10

# Runs in a tree's root with argv = [workload, run seed, episodes]; prints
# the summed work counters and query tallies as one JSON object.
COUNT_SCRIPT = """
import json, os, sys
sys.path[:0] = ["src", "perfbench"]
import harness, liveflow
if not os.path.realpath(liveflow.__file__).startswith(os.path.realpath("src") + os.sep):
    sys.exit(f"liveflow imported from {liveflow.__file__}, not from this tree")
wl = harness.WORKLOADS[sys.argv[1]]
totals = {"queries": 0, "failed": 0}
for i in range(int(sys.argv[3])):
    ep = harness.run_episode(wl, harness.episode_seed(int(sys.argv[2]), i))
    harness.check_references(wl, ep)
    totals["queries"] += ep.planned
    totals["failed"] += ep.failed
    for k, v in ep.counters.items():
        totals[k] = totals.get(k, 0) + v
print(json.dumps(totals))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(cwd: str, command: List[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run; returns the JSON object on its last output line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {cwd} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def work_counts(cwd: str, workload: str, seed: int) -> Dict[str, int]:
    """Summed work counters of one tree on the fixed stream set."""
    argv = [sys.executable, "-c", COUNT_SCRIPT, workload, str(seed), str(COUNT_EPISODES)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"work counts in {cwd} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_counts(counts: Dict[str, Dict[str, int]]) -> None:
    base, change = counts["base"], counts["change"]
    print(f"{'work count':<16} {'base':>12} {'change':>12} {'change/base':>12}")
    for name in change:
        b, c = base.get(name, 0), change[name]
        ratio = f"{c / b:.3f}" if b else "n/a"
        print(f"{name:<16} {b:>12} {c:>12} {ratio:>12}")


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(runs: Dict[str, List[dict]], better: Dict[str, str]) -> None:
    base, change = runs["base"], runs["change"]
    names = [k for k in change[0]["metrics"] if k in base[0]["metrics"]]
    print(f"{'metric':<16} {'side':<7} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'change/base':>12} {'wins':>7}")
    for name in names:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        higher = better.get(name, "higher") == "higher"
        wins = sum(1 for x, y in zip(c, b) if (x > y if higher else x < y))
        bq = quartiles(b)
        cq = quartiles(c)
        ratio = f"{cq[1] / bq[1]:.3f}" if bq[1] else "n/a"
        print(f"{name:<16} {'base':<7} {bq[1]:>12.6g} {bq[0]:>12.6g} {bq[2]:>12.6g}")
        print(f"{'':<16} {'change':<7} {cq[1]:>12.6g} {cq[0]:>12.6g} {cq[2]:>12.6g} "
              f"{ratio:>12} {wins:>3}/{len(c):<3}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        incorrect = sum(1 for r in runs[side] if not r["correct"])
        print(f"{side}: {failed} of {attempted} queries failed, "
              f"{incorrect} of {len(runs[side])} runs not correct")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare against")
    p.add_argument("--workload", default=bench["workloads"][0]["name"])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    command = [sys.executable if c in ("python", "python3") else c
               for c in bench["command"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    tmp = tempfile.mkdtemp(prefix="ab_bench-")
    base_dir = os.path.join(tmp, sha[:12])
    runs: Dict[str, List[dict]] = {"base": [], "change": []}
    counts: Dict[str, Dict[str, int]] = {}
    try:
        os.mkdir(base_dir)
        archive = subprocess.run(["git", "-C", ROOT, "archive", sha],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_dir)
        for side, cwd in (("base", base_dir), ("change", ROOT)):
            counts[side] = work_counts(cwd, args.workload, args.seed)
        for i in range(args.pairs):
            order = ("change", "base") if i % 2 == 0 else ("base", "change")
            for side in order:
                cwd = ROOT if side == "change" else base_dir
                res = run_once(cwd, command, args.workload, args.seed, args.seconds)
                runs[side].append(res)
                value = res["metrics"].get("events_per_s", {}).get("value")
                print(f"pair {i + 1}/{args.pairs} {side:<6} events_per_s={value}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s per run, "
          f"{args.pairs} pairs; base {sha[:12]}, change = working tree of {ROOT}")
    report(runs, better)
    print(f"work counts: streams 0..{COUNT_EPISODES - 1} of run seed {args.seed}, summed")
    report_counts(counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
