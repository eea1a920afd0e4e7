#!/usr/bin/env python3
"""Sweep offered event rates against one log and report median query latency.

First measures the saturation rate (unthrottled ingestion), then replays the
log at a set of fractions of it. Lower offered rates should produce lower
result latency, since the engine converges in the slack between events.

Example:
    python scripts/gen_stream.py --events 30000 --vertices 1200 --out s.log
    python scripts/rate_sweep.py --input s.log --source 0 --sink 1 --query-interval 2500
"""

import argparse
import math
import statistics
import sys
import time

from liveflow.events import StreamFormatError, StreamOrderError, read_event_log, throttle
from liveflow.metrics import QuerySchedule
from liveflow.runtime import EngineConfig, ThreadedEngine


def run(events, source, sink, workers, interval, rate):
    eng = ThreadedEngine(EngineConfig(source=source, sink=sink, workers=workers))
    sched = QuerySchedule(interval)
    latencies = []
    stream = iter(events) if rate is None else throttle(iter(events), rate)
    started = time.perf_counter()
    try:
        for ev in stream:
            if sched.observe(ev.ts):
                latencies.append(eng.query().latency_s)
            eng.ingest(ev)
        latencies.append(eng.query().latency_s)
    finally:
        eng.close()
    elapsed = time.perf_counter() - started
    return latencies, len(events) / elapsed


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--sink", type=int, required=True)
    p.add_argument("--query-interval", type=int, required=True)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--fractions", default="0.1,0.25,0.5,1.0")
    args = p.parse_args()
    if args.query_interval <= 0:
        p.error("--query-interval must be positive")
    try:
        EngineConfig(source=args.source, sink=args.sink, workers=args.workers).validate()
    except ValueError as exc:
        p.error(str(exc))
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
    except ValueError:
        p.error(f"--fractions must be comma-separated numbers, got {args.fractions!r}")
    if not all(math.isfinite(f) and f > 0 for f in fractions):
        p.error("--fractions must all be positive and finite")

    try:
        with open(args.input, encoding="utf-8") as fh:
            events = list(read_event_log(fh))
    except (OSError, StreamFormatError, StreamOrderError) as exc:
        sys.exit(f"{p.prog}: cannot read input: {exc}")
    if not events:
        p.error(f"{args.input} holds no events")
    print(f"{len(events)} events; measuring saturation...")
    lat, sat = run(events, args.source, args.sink, args.workers, args.query_interval, None)
    print(f"saturation: {sat:,.0f} events/s, median latency {statistics.median(lat)*1e3:.1f} ms")
    for frac in fractions:
        lat, rate = run(
            events, args.source, args.sink, args.workers, args.query_interval, sat * frac
        )
        print(
            f"offered {frac:>5.0%} of saturation: achieved {rate:,.0f} e/s, "
            f"median latency {statistics.median(lat)*1e3:.1f} ms over {len(lat)} queries"
        )


if __name__ == "__main__":
    main()
