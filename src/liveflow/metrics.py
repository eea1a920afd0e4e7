"""Query records, stability scoring, throughput summaries, output formats."""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import IO, Iterable, List, Optional, Set

__all__ = [
    "QueryRecord",
    "QuerySchedule",
    "stability_score",
    "write_record",
    "write_summary",
    "summarize",
]


@dataclass
class QueryRecord:
    trigger_ts: int
    events_ingested: int
    flow_value: int
    latency_ms: float
    stability_pct: Optional[float]         # None for the first query of a run
    events_per_sec: Optional[float]        # None for a zero-duration segment


class QuerySchedule:
    """Fires for the first event whose timestamp exceeds the last trigger
    timestamp by more than the interval, and for no other event. The first
    event of the stream sets the baseline."""

    def __init__(self, interval: int):
        if interval <= 0:
            raise ValueError("query interval must be positive")
        self.interval = interval
        self.last_trigger: Optional[int] = None

    def observe(self, ts: int) -> bool:
        if self.last_trigger is None:
            self.last_trigger = ts
            return False
        if ts > self.last_trigger + self.interval:
            self.last_trigger = ts
            return True
        return False


def stability_score(current: Iterable[int], previous: Iterable[int]) -> float:
    """Percentage of the current result's through-flow vertices that also
    appeared in the prior result. An empty current set scores 100 (nothing
    moved)."""
    cur: Set[int] = set(current)
    if not cur:
        return 100.0
    prev: Set[int] = set(previous)
    return len(cur & prev) / len(cur) * 100.0


def summarize(records: List[QueryRecord], total_events: int) -> dict:
    rates = [r.events_per_sec for r in records if r.events_per_sec is not None]
    skipped = sum(1 for r in records if r.events_per_sec is None)
    latencies = [r.latency_ms for r in records]
    return {
        "events": total_events,
        "queries": len(records),
        "median_events_per_sec": statistics.median(rates) if rates else None,
        "min_events_per_sec": min(rates) if rates else None,
        "max_events_per_sec": max(rates) if rates else None,
        "zero_duration_segments": skipped,
        "mean_latency_ms": statistics.fmean(latencies) if latencies else None,
    }


_TSV_HEADER = "trigger_ts\tevents_ingested\tflow_value\tlatency_ms\tstability_pct\tevents_per_sec"


def _fmt(x, digits=3) -> str:
    return "" if x is None else f"{x:.{digits}f}"


def write_header(out: IO[str], fmt: str) -> None:
    if fmt == "tsv":
        out.write(_TSV_HEADER + "\n")


def write_record(out: IO[str], fmt: str, rec: QueryRecord) -> None:
    if fmt == "jsonl":
        out.write(
            json.dumps(
                {
                    "type": "query",
                    "trigger_ts": rec.trigger_ts,
                    "events_ingested": rec.events_ingested,
                    "flow_value": rec.flow_value,
                    "latency_ms": rec.latency_ms,
                    "stability_pct": rec.stability_pct,
                    "events_per_sec": rec.events_per_sec,
                }
            )
            + "\n"
        )
    else:
        out.write(
            f"{rec.trigger_ts}\t{rec.events_ingested}\t{rec.flow_value}\t"
            f"{_fmt(rec.latency_ms)}\t{_fmt(rec.stability_pct, 2)}\t"
            f"{_fmt(rec.events_per_sec, 1)}\n"
        )


def write_summary(out: IO[str], fmt: str, summary: dict) -> None:
    if fmt == "jsonl":
        out.write(json.dumps({"type": "summary", **summary}) + "\n")
    else:
        parts = [f"{k}={v if v is not None else ''}" for k, v in summary.items()]
        out.write("# summary " + " ".join(parts) + "\n")
