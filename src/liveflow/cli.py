"""Command-line driver: stream an event log through the engine, issue
queries on a timestamp interval, and emit per-query records plus a summary.

Exit status: 0 on success, 2 on configuration errors, 3 on an oracle
mismatch (with --oracle-check), 1 on I/O or stream errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from typing import IO, Callable, List, Optional

from .events import (
    StreamFormatError,
    StreamOrderError,
    TopologyEvent,
    check_offered_rate,
    read_event_log,
    sliding_window_transform,
    throttle,
)
from .metrics import (
    QueryRecord,
    QuerySchedule,
    stability_score,
    summarize,
    write_header,
    write_record,
    write_summary,
)
from .oracle import max_flow_reference
from .runtime import (
    EngineConfig,
    GraphStore,
    StreamValidityError,
    create_engine,
)

__all__ = ["RunConfig", "run_cli", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_ORACLE = 3


@dataclass
class RunConfig:
    input_path: str
    query_interval: int
    engine: EngineConfig
    window: Optional[int] = None
    offered_rate: Optional[float] = None
    oracle_check: bool = False
    output_format: str = "tsv"
    static_baseline: bool = False

    def validate(self) -> None:
        """Check this run's own fields, then the engine's through
        ``EngineConfig.validate``, so each rule is written once and holds
        also when no engine is built (``static_baseline``)."""
        if self.query_interval <= 0:
            raise ValueError("query interval must be positive")
        if self.window is not None and self.window <= 0:
            raise ValueError("window size must be positive")
        if self.offered_rate is not None:
            check_offered_rate(self.offered_rate)
        if self.output_format not in ("tsv", "jsonl"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        self.engine.validate()


class _OracleMismatch(Exception):
    def __init__(self, got: int, want: int, trigger_ts: int):
        super().__init__(
            f"query at ts {trigger_ts}: engine value {got} != reference {want}"
        )


def run_cli(
    cfg: RunConfig,
    out: Optional[IO[str]] = None,
    err: Optional[IO[str]] = None,
    engine_factory: Optional[Callable] = None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    factory = engine_factory if engine_factory is not None else create_engine
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"liveflow: configuration error: {exc}", file=err)
        return EXIT_CONFIG

    try:
        fh = open(cfg.input_path, "r", encoding="utf-8")
    except OSError as exc:
        print(f"liveflow: cannot read input: {exc}", file=err)
        return EXIT_ERROR

    engine = None
    records: List[QueryRecord] = []
    schedule = QuerySchedule(cfg.query_interval)
    prev_involved: Optional[frozenset] = None
    ingested = 0
    seg_events_base = 0

    def static_query(trigger_ts: int):
        t0 = time.perf_counter()
        econf = cfg.engine
        # A from-scratch run is a fresh execution, not a replay of the
        # incremental run's schedule: each rebuild gets a distinct seed, so
        # it runs on the caller's thread and starts no background thread.
        seed = (econf.deterministic_seed or 0) + 1000 * (len(records) + 1)
        fresh = factory(replace(econf, deterministic_seed=seed))
        try:
            for (src, dst), cap in store.caps.items():
                fresh.ingest(TopologyEvent(trigger_ts, src, dst, cap))
            res = fresh.query(trigger_ts)
        finally:
            fresh.close()
        res.latency_s = time.perf_counter() - t0  # rebuild cost included
        return res

    def run_query(trigger_ts: int) -> None:
        nonlocal prev_involved, seg_events_base, seg_clock_base
        seg_seconds = time.perf_counter() - seg_clock_base
        seg_events = ingested - seg_events_base
        res = engine.query(trigger_ts) if engine is not None else static_query(trigger_ts)
        if cfg.oracle_check:
            want, _ = max_flow_reference(store.snapshot(), cfg.engine.source, cfg.engine.sink)
            if want != res.flow_value:
                raise _OracleMismatch(res.flow_value, want, trigger_ts)
        stability = (
            None
            if prev_involved is None
            else stability_score(res.involved, prev_involved)
        )
        prev_involved = res.involved
        rate = seg_events / seg_seconds if seg_seconds > 0 else None
        records.append(
            QueryRecord(
                trigger_ts=trigger_ts,
                events_ingested=ingested,
                flow_value=res.flow_value,
                latency_ms=res.latency_s * 1000.0,
                stability_pct=stability,
                events_per_sec=rate,
            )
        )
        write_record(out, cfg.output_format, records[-1])
        seg_events_base = ingested
        seg_clock_base = time.perf_counter()

    last_ts = 0
    try:
        try:
            # built inside the try, so the input is closed if this raises
            engine = None if cfg.static_baseline else factory(cfg.engine)
            # the one capacity ledger: the oracle reads it, the static
            # baseline rebuilds each query from it
            store = GraphStore() if engine is None else engine.store
            seg_clock_base = time.perf_counter()
            write_header(out, cfg.output_format)
            stream = read_event_log(fh)
            if cfg.window is not None:
                stream = sliding_window_transform(stream, cfg.window)
            if cfg.offered_rate is not None:
                stream = throttle(stream, cfg.offered_rate)
            for ev in stream:
                if schedule.observe(ev.ts):
                    run_query(ev.ts)  # collection happens before the event lands
                if engine is None:
                    store.apply_edge(ev)
                    store.note_vertices(ev.src, ev.dst)
                else:
                    engine.ingest(ev)
                ingested += 1
                last_ts = ev.ts
            if ingested > 0:
                run_query(last_ts)
        finally:
            fh.close()
            if engine is not None:
                engine.close()
    except _OracleMismatch as exc:
        print(f"liveflow: oracle mismatch: {exc}", file=err)
        return EXIT_ORACLE
    except (StreamFormatError, StreamOrderError, StreamValidityError, OSError) as exc:
        print(f"liveflow: {exc}", file=err)
        return EXIT_ERROR

    write_summary(out, cfg.output_format, summarize(records, ingested))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liveflow",
        description=(
            "Maintain an (s,t) max-flow over a streamed event log and "
            "report per-query value, latency, stability, and throughput."
        ),
    )
    p.add_argument("--input", required=True, help="event log path")
    p.add_argument("--source", required=True, type=int, help="source vertex id")
    p.add_argument("--sink", required=True, type=int, help="sink vertex id")
    p.add_argument(
        "--query-interval",
        required=True,
        type=int,
        metavar="N",
        help="dataset time units between queries",
    )
    p.add_argument("--workers", type=int, default=EngineConfig.workers, metavar="N")
    p.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="synthesize sliding-window deletions of this width",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="N",
        help="offered event rate, events/second (default: unthrottled)",
    )
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check every query against the static reference solver",
    )
    p.add_argument(
        "--deterministic",
        type=int,
        default=None,
        metavar="SEED",
        help="seeded scheduling on the calling thread, for reproducible runs",
    )
    p.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p.add_argument(
        "--static-baseline",
        action="store_true",
        help="recompute each query from scratch on the current snapshot's pairs",
    )
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        input_path=args.input,
        query_interval=args.query_interval,
        engine=EngineConfig(
            source=args.source,
            sink=args.sink,
            workers=args.workers,
            deterministic_seed=args.deterministic,
        ),
        window=args.window,
        offered_rate=args.rate,
        oracle_check=args.oracle_check,
        output_format=args.format,
        static_baseline=args.static_baseline,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = run_cli(config_from_args(args))
    except KeyboardInterrupt:
        code = EXIT_ERROR
    if argv is None:
        sys.exit(code)
    return code
