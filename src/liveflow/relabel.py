"""Global relabeling: trigger policy and the four-phase state machine.

Heights drift below the true residual distances as edges saturate, which
misroutes flow. A global relabel periodically resets every height to the
exact residual-graph distance. It runs in four phases:

* normal: regular execution, watching the trigger.
* drain: lifts are disabled and all in-flight messages are processed.
* relabel-up: every vertex jumps to INF except the fixed points
  (source, sink, deficit vertices); vertex operations are paused.
* relabel-down: the fixed points broadcast their heights and everyone else
  descends by height clamping only (no flow moves) until quiescent.

The trigger fires on a lift budget, or on elapsed time proportional to the
previous relabel's duration; the time condition keeps relabels prompt even
when few vertices are active and lifts are rare. The default lift budget is
the historical maximum vertex count n_max, or 1 lift once a flow cut (a
capacity decrease that forced a vertex to send flow back) has happened
since the last relabel: a cut leaves excess and deficits the current
heights were never built for, and correcting stale heights one lift at a
time costs a height broadcast per lift. Time is the engine's step
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

_NEXT_PHASE = {
    PHASE_NORMAL: PHASE_DRAIN,
    PHASE_DRAIN: PHASE_RELABEL_UP,
    PHASE_RELABEL_UP: PHASE_RELABEL_DOWN,
    PHASE_RELABEL_DOWN: PHASE_NORMAL,
}


@dataclass
class GrTunables:
    """Trigger knobs. ``lift_threshold=None`` is the default lift budget:
    the historical maximum vertex count n_max, or 1 lift after a flow cut
    since the last relabel. An explicit threshold ignores cuts.
    ``time_factor`` caps relabel overhead at roughly 1/time_factor of
    runtime."""

    lift_threshold: Optional[int] = None
    time_factor: float = 10.0
    min_interval_ms: float = 50.0

    def validate(self) -> None:
        if self.lift_threshold is not None and self.lift_threshold <= 0:
            raise ValueError("lift threshold must be positive")
        if self.time_factor <= 0:
            raise ValueError("time factor must be positive")
        if self.min_interval_ms <= 0:
            raise ValueError("minimum interval must be positive")


@dataclass
class GrState:
    """Phase machine state plus trigger statistics.

    ``last_gr_duration_ms`` starts at min_interval/time_factor so the time
    condition is live from startup. Clock values are supplied by the engine:
    its step clock, which counts handler runs in both execution modes. The
    engine sets ``cut_pending`` before each trigger probe when a flow cut
    happened since the last relabel; ``finish`` clears it.
    """

    tunables: GrTunables = field(default_factory=GrTunables)
    phase: str = PHASE_NORMAL
    lift_baseline: int = 0
    last_gr_duration_ms: float = 0.0
    last_gr_end_ms: float = 0.0
    runs: int = 0
    cut_pending: bool = False

    def __post_init__(self):
        self.tunables.validate()
        if self.last_gr_duration_ms == 0.0:
            self.last_gr_duration_ms = (
                self.tunables.min_interval_ms / self.tunables.time_factor
            )

    def advance(self, phase: str) -> None:
        if _NEXT_PHASE[self.phase] != phase:
            raise RuntimeError(f"illegal phase transition {self.phase} -> {phase}")
        self.phase = phase

    def finish(self, now_ms: float, started_ms: float, lifts_total: int) -> None:
        """Close out a completed relabel (must be back in the normal phase)."""
        if self.phase != PHASE_NORMAL:
            raise RuntimeError("finish() outside the normal phase")
        self.last_gr_duration_ms = max(now_ms - started_ms, 0.0)
        self.last_gr_end_ms = now_ms
        self.lift_baseline = lifts_total
        self.cut_pending = False
        self.runs += 1


def check_trigger(gr: GrState, now_ms: float, lifts_total: int, n_max: int) -> bool:
    """True when a relabel should start: the lift budget since the last run
    is exhausted, or the elapsed time exceeds
    max(time_factor * last duration, min interval)."""
    if gr.phase != PHASE_NORMAL:
        return False
    threshold = gr.tunables.lift_threshold
    if threshold is None:
        threshold = 1 if gr.cut_pending else max(n_max, 1)
    if lifts_total - gr.lift_baseline >= threshold:
        return True
    wait = max(
        gr.tunables.time_factor * gr.last_gr_duration_ms,
        gr.tunables.min_interval_ms,
    )
    return (now_ms - gr.last_gr_end_ms) >= wait
