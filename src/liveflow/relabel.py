"""Global relabeling: trigger policy and relabel bookkeeping.

Heights drift below the true residual distances as edges saturate, which
misroutes flow. A global relabel periodically resets every height to the
exact residual-graph distance. It is one call, ``runtime.SimEngine._run_gr``,
made between scheduler batches with topology held, in four steps:

* drain: lifts are disabled and all in-flight messages are processed.
* relabel-up: every vertex jumps to INF except the fixed points
  (source, sink, deficit vertices).
* relabel-down: the fixed points broadcast their heights and everyone else
  descends by height clamping only (no flow moves) until quiescent.
* normal: pushes and lifts resume and parked excess is discharged.

The trigger fires on a lift budget, or once the time since the last
relabel reaches max(TIME_FACTOR * its duration, MIN_INTERVAL_MS); the time
condition keeps relabels prompt even when few vertices are active and lifts
are rare, and caps relabel overhead at roughly 1/TIME_FACTOR of runtime.
The default lift budget is the historical maximum vertex count n_max, or 1
lift once a flow cut (a capacity decrease that forced a vertex to send flow
back) has happened since the last relabel: a cut leaves excess and deficits
the current heights were never built for, and correcting stale heights one
lift at a time costs a height broadcast per lift. Time is the engine's step
clock in both execution modes: handler runs, 50 of them to the "ms"
(``runtime.SIM_STEPS_PER_MS``), so relabels follow the work done and not
host speed or idle wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "PHASE_NORMAL",
    "PHASE_DRAIN",
    "PHASE_RELABEL_UP",
    "PHASE_RELABEL_DOWN",
    "GrTunables",
    "GrState",
    "check_trigger",
]

PHASE_NORMAL = "normal"
PHASE_DRAIN = "drain"
PHASE_RELABEL_UP = "relabel-up"
PHASE_RELABEL_DOWN = "relabel-down"

TIME_FACTOR = 10.0       # wait at least this many times the last relabel's duration
MIN_INTERVAL_MS = 50.0   # and at least this long: 2,500 handler runs


@dataclass
class GrTunables:
    """Trigger knobs. ``lift_threshold=None`` is the default lift budget:
    the historical maximum vertex count n_max, or 1 lift after a flow cut
    since the last relabel. An explicit threshold ignores cuts."""

    lift_threshold: Optional[int] = None

    def validate(self) -> None:
        if self.lift_threshold is not None and self.lift_threshold <= 0:
            raise ValueError("lift threshold must be positive")


@dataclass
class GrState:
    """Relabel bookkeeping plus trigger statistics.

    ``phase`` names the running relabel's step (``PHASE_NORMAL`` between
    relabels) for observers; the engine never branches on it. Clock values
    are supplied by the engine: its step clock, which counts handler runs in
    both execution modes. The engine sets ``cut_pending`` before each
    trigger probe when a flow cut happened since the last relabel;
    ``finish`` clears it.
    """

    tunables: GrTunables = field(default_factory=GrTunables)
    phase: str = PHASE_NORMAL
    lift_baseline: int = 0
    last_gr_duration_ms: float = 0.0
    last_gr_end_ms: float = 0.0
    runs: int = 0
    cut_pending: bool = False

    def advance(self, phase: str) -> None:
        """Enter the relabel's next step. Kept for observers: ``perfbench/tracer.py``
        hooks it to open relabel spans, and counts the messages handled while
        ``phase`` is not normal."""
        self.phase = phase

    def finish(self, now_ms: float, started_ms: float, lifts_total: int) -> None:
        """Close out a completed relabel."""
        self.last_gr_duration_ms = now_ms - started_ms
        self.last_gr_end_ms = now_ms
        self.lift_baseline = lifts_total
        self.cut_pending = False
        self.runs += 1


def check_trigger(gr: GrState, now_ms: float, lifts_total: int, n_max: int) -> bool:
    """True when a relabel should start: the lift budget since the last run
    is exhausted, or the elapsed time reaches
    max(TIME_FACTOR * last duration, MIN_INTERVAL_MS)."""
    threshold = gr.tunables.lift_threshold
    if threshold is None:
        threshold = 1 if gr.cut_pending else max(n_max, 1)
    if lifts_total - gr.lift_baseline >= threshold:
        return True
    wait = max(TIME_FACTOR * gr.last_gr_duration_ms, MIN_INTERVAL_MS)
    return (now_ms - gr.last_gr_end_ms) >= wait
