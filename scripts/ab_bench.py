#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: working tree against a base commit.

    python3 scripts/ab_bench.py --base HEAD~1 --workload growth --pairs 10
    python3 scripts/ab_bench.py --base main --workload window-poll --seed 7

The base commit's files are exported with ``git archive`` into a temporary
directory (removed afterwards, also on SIGTERM), so the repository itself is
not touched.
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
``work_counters`` summed over the streams, every query checked against
the reference, and ``invariant_errors`` the number of errors the
invariant scan after each stream reported. On a seeded workload these
counts repeat exactly, so they show whether a change moved the
algorithm's work independent of host drift; on a threaded workload they
vary from run to run.

With ``--interleave ROUNDS`` the script runs no subprocess pairs. It
imports both trees' ``liveflow`` into this one process, as the packages
``liveflow_base`` and ``liveflow_change``, and drives the same streams
through ``harness._drive`` (the working tree's harness) on both, alternating
which side drives a stream first. Each round drives STREAMS_PER_ROUND
streams on each side and prints the change's total drive time over the
base's, each side's query p50, and which of the per-query flows, the
stability values and ``work_counters`` differ on some stream (or that all
three match). Host drift between separate processes is then shared by both
sides. Only the drive (ingest plus queries) is timed: parsing, windowing
and engine creation run untimed, so a set-up gain shows only in the
``setup_s`` metric of the subprocess pairs. After each timed drive the
engine's invariants are scanned, untimed. The run ends with each side's
``work_counters`` summed over every stream it drove, and the number of scan
errors as ``invariant_errors``, so a change that moves the schedule on
purpose reads its old and new counts, the ``flows`` verdict and whether
both sides' scans are clean from one run. The exit status is 1 when the
flows, the stability values or ``work_counters`` differ on some stream,
else 0.

    python3 scripts/ab_bench.py --base HEAD~1 --workload window-poll --interleave 6
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_EPISODES = 10
STREAMS_PER_ROUND = 4     # streams per side in one --interleave round
# Per-stream results --interleave compares, by report name: Episode attribute.
COMPARED = {"flows": "flows", "stability": "stability", "work_counters": "counters"}

# Runs in a tree's root with argv = [workload, run seed, episodes]; prints
# the summed work counters and query tallies as one JSON object.
COUNT_SCRIPT = """
import json, os, sys
sys.path[:0] = ["src", "perfbench"]
import harness, liveflow
if not os.path.realpath(liveflow.__file__).startswith(os.path.realpath("src") + os.sep):
    sys.exit(f"liveflow imported from {liveflow.__file__}, not from this tree")
wl = harness.WORKLOADS[sys.argv[1]]
totals = {"queries": 0, "failed": 0, "invariant_errors": 0}
for i in range(int(sys.argv[3])):
    ep = harness.run_episode(wl, harness.episode_seed(int(sys.argv[2]), i))
    harness.check_references(wl, ep)
    totals["queries"] += ep.planned
    totals["failed"] += ep.failed
    totals["invariant_errors"] += len(ep.invariant_errors)
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


def load_package(name: str, src: str):
    """Import the ``liveflow`` package under ``src`` as module ``name``."""
    init = os.path.join(src, "liveflow", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def drive_stream(harness, pkg, wl, seed: int):
    """Set up one stream with ``pkg``'s parser and engine, drive it through
    ``harness._drive`` and scan the engine's invariants after the timed
    drive; returns the filled ``harness.Episode``."""
    lines = harness.stream_lines(wl.vertices, wl.adds, seed)
    events = list(pkg.sliding_window_transform(pkg.read_event_log(lines), wl.window))
    engine = pkg.create_engine(pkg.EngineConfig(
        source=harness.SOURCE, sink=harness.SINK, workers=wl.workers,
        deterministic_seed=seed if wl.seeded else None))
    ep = harness.Episode(seed, events=len(events))
    plan = harness._query_plan(events, wl.query_every)
    ep.planned = len(plan)
    gc.collect()
    try:
        harness._drive(engine, events, wl, ep, plan)
        ep.invariant_errors = engine.scan_invariants()
    finally:
        engine.close()
    ep.counters = harness.work_counters(engine)
    return ep


def differing(base_eps, change_eps) -> List[str]:
    """Names of the COMPARED results that differ between the sides on some stream."""
    return [name for name, attr in COMPARED.items()
            if any(getattr(b, attr) != getattr(c, attr) for b, c in zip(base_eps, change_eps))]


def match_text(differ: List[str], same: str) -> str:
    if differ:
        return f"DIFFER in {', '.join(differ)}"
    return f"flows, stability and work_counters {same}"


def interleave(base_dir: str, workload: str, seed: int, rounds: int) -> bool:
    """Alternate the same streams through both trees in this process;
    True when both gave the same results on every stream."""
    import harness  # on sys.path since main()

    pkgs = {"base": load_package("liveflow_base", os.path.join(base_dir, "src")),
            "change": load_package("liveflow_change", os.path.join(ROOT, "src"))}
    wl = harness.WORKLOADS[workload]
    ratios: List[float] = []
    lat: Dict[str, List[float]] = {"base": [], "change": []}
    totals: Dict[str, Counter] = {"base": Counter(), "change": Counter()}
    ever_differ = set()
    for r in range(rounds):
        eps: Dict[str, list] = {"base": [], "change": []}
        for k in range(STREAMS_PER_ROUND):
            index = r * STREAMS_PER_ROUND + k
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            for side in order:
                eps[side].append(drive_stream(
                    harness, pkgs[side], wl, harness.episode_seed(seed, index)))
        ratio = (sum(ep.drive_s for ep in eps["change"])
                 / sum(ep.drive_s for ep in eps["base"]))
        ratios.append(ratio)
        p50 = {}
        for side in ("base", "change"):
            round_lat = [x for ep in eps[side] for x in ep.latencies_ms]
            lat[side] += round_lat
            p50[side] = statistics.median(round_lat)
            for ep in eps[side]:
                totals[side].update(ep.counters)
                totals[side]["invariant_errors"] += len(ep.invariant_errors)
        differ = differing(eps["base"], eps["change"])
        ever_differ.update(differ)
        print(f"round {r + 1}/{rounds}: drive change/base {ratio:.3f}, "
              f"query p50 base {p50['base']:.3f} ms change {p50['change']:.3f} ms, "
              f"{match_text(differ, 'match')}", flush=True)
    won = sum(1 for x in ratios if x < 1.0)
    print(f"workload {workload}, seed {seed}, {rounds} rounds of {STREAMS_PER_ROUND} "
          f"streams per side: change won {won}/{rounds} rounds, median drive "
          f"change/base {statistics.median(ratios):.3f}; query p50 base "
          f"{statistics.median(lat['base']):.3f} ms change "
          f"{statistics.median(lat['change']):.3f} ms; "
          f"{match_text([n for n in COMPARED if n in ever_differ], 'match on every stream')}")
    print(f"work counts: the {rounds * STREAMS_PER_ROUND} streams driven, summed")
    report_counts(totals)
    return not ever_differ


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
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import harness

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit to compare against")
    p.add_argument("--workload", default=bench["workloads"][0]["name"],
                   choices=sorted(harness.WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--interleave", type=int, default=0, metavar="ROUNDS",
                   help="instead of pairs, alternate both trees' engines over "
                        "the same streams in one process for ROUNDS rounds")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.interleave < 0:
        p.error("--interleave must not be negative")
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        p.error("--seconds must be positive and finite")

    command = [sys.executable if c in ("python", "python3") else c
               for c in bench["command"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    # SIGTERM as SystemExit, so the ``finally`` below removes the export
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
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
        if args.interleave:
            print(f"base {sha[:12]}, change = working tree of {ROOT}")
            return 0 if interleave(base_dir, args.workload, args.seed, args.interleave) else 1
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
