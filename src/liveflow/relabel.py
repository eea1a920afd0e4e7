"""Global relabeling: trigger policy and relabel bookkeeping.

Heights drift below the true residual distances as edges saturate, which
misroutes flow. A global relabel periodically resets every height to the
exact residual-graph distance. It is one call, ``runtime.SimEngine._run_gr``,
made between scheduler batches with topology held, in four steps:

* drain: lifts are disabled and all in-flight messages are processed.
* relabel-up: every normal vertex jumps to INF; the source (INF) and the
  sink (0) keep their fixed points. The drain leaves no deficit:
  ``vertex.shed`` cancels each one along its own flow, with no label.
* relabel-down: a breadth-first search from the sink, one level at a time,
  sets every vertex that reaches the sink to its residual distance; sent
  heights and mirrors are then written directly, with no message. The rest
  stay at INF, and their excess waits there: a maximum preflow already
  fixes the flow value (Goldberg & Tarjan, JACM 1988).
* normal: lifts resume and parked excess is discharged.

The trigger is a lift budget, counted since the last relabel: the
historical maximum vertex count n_max, or 1 lift once a flow cut (a
capacity decrease that forced a vertex to send flow back) has happened
since the last relabel. The flow a cut returns is excess the current
heights were never built for, and correcting stale heights one lift at a
time costs a height broadcast per lift. Counting work rather than elapsed
time follows Cherkassky & Goldberg (Algorithmica 1997).
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


@dataclass
class GrTunables:
    """Always the default: nothing sets it and ``check_trigger`` does not
    read it. It stays as the type of ``GrState.tunables`` for observers,
    since ``perfbench/tracer.py`` reads ``lift_threshold`` (always None)."""

    lift_threshold: Optional[int] = None


@dataclass
class GrState:
    """Relabel bookkeeping plus trigger statistics.

    ``phase`` names the running relabel's step (``PHASE_NORMAL`` between
    relabels) for observers; the engine never branches on it. The engine
    sets ``cut_pending`` before each trigger probe when a flow cut happened
    since the last relabel; ``finish`` clears it.
    """

    tunables: GrTunables = field(default_factory=GrTunables)
    phase: str = PHASE_NORMAL
    lift_baseline: int = 0
    runs: int = 0
    cut_pending: bool = False

    def advance(self, phase: str) -> None:
        """Enter the relabel's next step. Kept for observers: ``perfbench/tracer.py``
        hooks it to open relabel spans, and counts the messages handled while
        ``phase`` is not normal."""
        self.phase = phase

    def finish(self, now_ms: float, started_ms: float, lifts_total: int) -> None:
        """Close out a completed relabel. The time arguments are unused; they
        stay because ``perfbench/tracer.py`` wraps this by position."""
        self.lift_baseline = lifts_total
        self.cut_pending = False
        self.runs += 1


def check_trigger(gr: GrState, now_ms: float, lifts_total: int, n_max: int) -> bool:
    """True when the lifts since the last relabel reach the budget: 1 after a
    flow cut, else max(n_max, 1). ``now_ms`` is unused; it stays because
    ``perfbench/tracer.py`` wraps this by position."""
    budget = 1 if gr.cut_pending else max(n_max, 1)
    return lifts_total - gr.lift_baseline >= budget
