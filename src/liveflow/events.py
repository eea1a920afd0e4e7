"""Event-log parsing, sliding-window deletion synthesis, and rate pacing.

Event logs are plain text, one event per line, fields separated by any
whitespace (so ``\\r\\n`` line ends are accepted):

    [a|d] <timestamp> <src> <dst> [<weight>]

A missing op marker means ``a`` (add); a missing weight means 1. A ``d``
marker negates the weight, turning the line into a capacity removal.
Numeric fields are ASCII decimal digits only: no sign, no ``_`` separators,
no other scripts' digits. Lines whose first non-blank character is ``#``
are comments. Timestamps must be non-decreasing across the file.

A stream is *delete-valid* when no prefix drives the cumulative capacity of
any ordered vertex pair negative. :func:`sliding_window_transform` always
produces delete-valid output from a sorted add-only input.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Iterator, List, NamedTuple, Optional

__all__ = [
    "TopologyEvent",
    "StreamFormatError",
    "StreamOrderError",
    "parse_event_line",
    "format_event_line",
    "read_event_log",
    "sliding_window_transform",
    "throttle",
]


class TopologyEvent(NamedTuple):
    """One timestamped edge-capacity change. Deletions carry a negative delta.

    A named tuple: immutable, hashable, equal by value, iterable as
    ``(ts, src, dst, delta)`` and equal to that plain 4-tuple."""

    ts: int
    src: int
    dst: int
    delta: int


class StreamFormatError(ValueError):
    """A line that does not match the event grammar, or a timestamp that
    regresses in a log read by :func:`read_event_log`."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class StreamOrderError(ValueError):
    """A transform received input it cannot order: a deletion, or a
    timestamp regression, in a stream that must be add-only and sorted.
    Only the transforms raise it; :func:`read_event_log` reports a
    regressing timestamp as a :class:`StreamFormatError`."""


_OP_MARKERS = ("a", "d")
# TopologyEvent(...) is a Python-level __new__ that makes exactly this call;
# the parser makes it directly, which halves the cost of building an event.
_new_event = tuple.__new__


def _fields_event(
    fields: List[str], line: str, line_no: Optional[int], last_ts: int = 0
) -> TopologyEvent:
    """Decode the whitespace-split, non-empty fields of one event line whose
    timestamp must not fall below ``last_ts``. ``line`` is screened for what
    ``int()`` accepts beyond ASCII digits and quoted in errors."""
    i = 1 if fields[0] in _OP_MARKERS else 0
    n = len(fields) - i
    if n != 3 and n != 4:
        raise StreamFormatError(
            f"expected '[a|d] ts src dst [weight]', got {n} value fields", line_no
        )
    try:
        ts, src, dst = int(fields[i]), int(fields[i + 1]), int(fields[i + 2])
    except ValueError:
        raise StreamFormatError(f"non-integer field in {line.strip()!r}", line_no) from None
    if ts < 0 or src < 0 or dst < 0:
        raise StreamFormatError("timestamp and vertex ids must be non-negative", line_no)
    if n == 4:
        try:
            weight = int(fields[i + 3])
        except ValueError:
            raise StreamFormatError(f"non-integer weight in {line.strip()!r}", line_no) from None
        if weight <= 0:
            raise StreamFormatError(f"weight must be positive, got {weight}", line_no)
    else:
        weight = 1
    if ts < last_ts:
        raise StreamFormatError(f"timestamp {ts} regresses below {last_ts}", line_no)
    # int() also takes a sign, "_" separators and non-ASCII digits. On a line
    # with none of those every field it took is ASCII digits; check the rest.
    if not line.isascii() or "-" in line or "+" in line or "_" in line:
        for f in fields[i:]:
            if not (f.isascii() and f.isdigit()):
                raise StreamFormatError(
                    f"numeric field {f!r} is not plain ASCII digits", line_no
                )
    return _new_event(TopologyEvent, (ts, src, dst, -weight if fields[0] == "d" else weight))


def parse_event_line(line: str, line_no: Optional[int] = None) -> TopologyEvent:
    """Decode one event line. Comments and blank lines are not events here;
    callers that read whole files should use :func:`read_event_log`."""
    fields = line.split()
    if not fields:
        raise StreamFormatError("blank line is not an event", line_no)
    return _fields_event(fields, line, line_no)


def format_event_line(ev: TopologyEvent) -> str:
    """Inverse of :func:`parse_event_line` (round-trips exactly)."""
    op = "a" if ev.delta > 0 else "d"
    return f"{op} {ev.ts} {ev.src} {ev.dst} {abs(ev.delta)}"


def read_event_log(lines: Iterable[str]) -> Iterator[TopologyEvent]:
    """Parse an event log, skipping comments and blanks and enforcing
    non-decreasing timestamps. Accepts any iterable of lines (file objects
    included)."""
    last_ts = 0  # parsed timestamps are non-negative
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        ev = _fields_event(fields, raw, line_no, last_ts)
        last_ts = ev.ts
        yield ev


def sliding_window_transform(
    stream: Iterable[TopologyEvent], window: Optional[int]
) -> Iterator[TopologyEvent]:
    """Emulate a sliding-window view of an add-only, timestamp-sorted stream.

    Before each input event with timestamp T, emits one deletion (at
    timestamp T) for every earlier add whose timestamp fell below T - window
    and that has not been deleted yet. ``window=None`` is the identity.
    """
    if window is None:
        yield from stream
        return
    if window <= 0:
        # A zero-width window would delete the triggering event itself;
        # that degenerate case is rejected rather than guessed at.
        raise ValueError("window size must be positive")
    live: deque[TopologyEvent] = deque()
    last_ts = None
    for ev in stream:
        if ev.delta <= 0:
            raise StreamOrderError("window transform requires an add-only input stream")
        if last_ts is not None and ev.ts < last_ts:
            raise StreamOrderError("window transform requires a timestamp-sorted input stream")
        last_ts = ev.ts
        cutoff = ev.ts - window
        while live and live[0].ts < cutoff:
            old = live.popleft()
            yield TopologyEvent(ev.ts, old.src, old.dst, -old.delta)
        yield ev
        live.append(ev)


def throttle(
    stream: Iterable[TopologyEvent], rate: Optional[float]
) -> Iterator[TopologyEvent]:
    """Pace a stream so the long-run release rate stays at or below ``rate``
    events per second. ``rate=None`` releases events as fast as they are
    consumed. The paced stream may be handed off to a different consumer
    thread; pacing state is confined to this generator."""
    if rate is None:
        yield from stream
        return
    if not rate > 0:  # NaN too
        raise ValueError("offered rate must be positive")
    start = time.monotonic()
    released = 0
    for ev in stream:
        due = start + released / rate
        while True:
            delay = due - time.monotonic()
            if delay <= 0:
                break
            time.sleep(delay)
        released += 1
        yield ev
