#!/usr/bin/env python3
"""liveflow benchmark: one workload, one seed, one run.

Run from the root of a source checkout (the program is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload growth --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload window-poll --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --anchor

The report lists every metric with its unit and the engine's work counters;
its last line is one JSON object: ``correct``, ``attempted`` (queries),
``failed`` (queries that raised, hung or returned a value other than the
reference) and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). See DESIGN.md for the workloads and what each metric is
expected to move.

Exit status: 0 when a result was printed, 1 when ``--anchor`` counts differ,
2 when the liveflow sources are missing or an argument is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_liveflow() -> bool:
    init = os.path.join(SRC, "liveflow", "__init__.py")
    if not os.path.isfile(init):
        return False
    sys.path.insert(0, SRC)
    import liveflow

    return os.path.realpath(liveflow.__file__) == os.path.realpath(init)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report_run(harness, r, metrics, units) -> None:
    wl = r.workload
    eps = r.episodes
    loop = f"open loop at {wl.rate:g} events/s" if wl.rate else "closed loop"
    lat = [x for ep in eps for x in ep.latencies_ms]
    print(f"workload {wl.name}: {wl.vertices} vertices, {wl.adds} adds per stream, "
          f"window {wl.window}, a query every {wl.query_every} ts, {wl.workers} worker(s), "
          f"{'seeded' if wl.seeded else 'threaded'} engine, {loop}")
    print(f"run seed {r.seed}: {len(eps)} streams, {sum(ep.events for ep in eps)} events, "
          f"{len(lat)} queries timed, {len(r.setups_s)} set-ups, "
          f"{len(r.traced)} traced streams")
    totals = {k: sum(ep.counters.get(k, 0) for ep in eps + r.traced)
              for k in eps[0].counters}
    print("work counters (all streams): "
          + " ".join(f"{k}={v}" for k, v in totals.items()))
    if r.replay_ok is not None:
        print(f"determinism: {r.replay_note}")
    print(f"query_error_rate {r.failed / r.attempted:.6g} ({r.failed} of {r.attempted} queries failed)")
    for ep in eps + r.traced:
        if ep.error:
            print(f"stream {ep.seed}: {ep.error}")
        if ep.wrong:
            bad = [(q, g, w) for q, g, w in zip(ep.query_at, ep.flows, ep.references) if g != w]
            print(f"stream {ep.seed}: flow differs from reference at {bad[:5]}")
    for e in r.invariant_errors[:10]:
        print(f"invariant: {e}")
    lags = [x for ep in eps for x in ep.lags_ms]
    if lags:
        print(f"ingest_lag_ms_p90 {_fmt(harness.quantile(lags, 90))} ms")
    for name, value in metrics.items():
        print(f"{name} {_fmt(value)} {units[name]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--anchor", action="store_true",
                   help="check ROADMAP's growth profile counts and exit")
    args = p.parse_args(argv)

    if not _import_liveflow():
        print(f"perfbench: liveflow sources not found under {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.anchor:
        res = harness.run_anchor()
        print(json.dumps(res))
        return 0 if res["ok"] else 1
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    r = harness.run_workload(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                             trace=bool(args.trace))
    if args.trace:
        metrics, units = harness.layer_metrics(r), harness.LAYER_UNITS
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        r.tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics, units = harness.end_to_end_metrics(r), harness.END_TO_END_UNITS
    _report_run(harness, r, metrics, units)
    print(json.dumps({
        "correct": r.correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
