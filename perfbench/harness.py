"""Workloads, episode driver and correctness gate of the liveflow benchmark.

A run of one workload executes *episodes* until its time budget is spent.
Each episode generates a fresh stream from (run seed, episode index), sets
up (``read_event_log``, ``sliding_window_transform``, ``create_engine``),
drives the engine with ``Engine.ingest`` and ``Engine.query`` the way
``run_cli`` does, scans invariants after the final query and reads the
engine's work counters.  Reference flow values (``max_flow_reference`` on
every queried prefix) are computed after each episode, outside its timed
drive, so their timings are spread over the run like the engine's.

Why many short streams instead of one long one: the engine's work on a
stream is dominated by how many global relabels the stream provokes, and
that count differs by up to 3x between streams of the same size (per-stream
wall time has a coefficient of variation near 35% on ``growth``).  Pooling
dozens of independent streams per run is what makes one run's figures
repeat across seeds.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from liveflow import (
    EngineConfig,
    StaticGraph,
    create_engine,
    max_flow_reference,
    read_event_log,
    sliding_window_transform,
)
from liveflow.metrics import QuerySchedule, stability_score

from tracer import NULL_TRACER, Tracer

SOURCE, SINK = 0, 1
MIN_SETUPS = 15          # setup_s is the median of at least this many set-ups
HANG_TIMEOUT_S = 30.0    # no query finished for this long: the episode hung


@dataclass(frozen=True)
class Workload:
    """One stream shape plus the way the engine is driven over it."""

    name: str
    vertices: int
    adds: int                       # add events generated per stream
    query_every: int                # QuerySchedule interval, in timestamps
    workers: int
    seeded: bool                    # SimEngine when True, ThreadedEngine otherwise
    window: Optional[int] = None    # sliding-window width, None for add-only
    rate: Optional[float] = None    # offered events/s (open loop); None is closed loop


WORKLOADS: Dict[str, Workload] = {
    # Write-heavy single-threaded baseline: sparse queries, so topology and
    # message handlers and lift-triggered relabels do the work.
    "growth": Workload("growth", vertices=200, adds=3000, query_every=500,
                       workers=1, seeded=True),
    # About 45% deletions and 50 queries per stream: capacity decreases,
    # deficits, per-query relabels and extraction, over 2 logical workers.
    "window-poll": Workload("window-poll", vertices=400, adds=3000, query_every=60,
                            workers=2, seeded=True, window=550),
    # Threaded engine fed on a fixed schedule. Kept for diagnosis of the
    # threaded runtime; not gated because its latencies do not repeat across
    # seeds (see DESIGN.md).
    "live": Workload("live", vertices=400, adds=3000, query_every=200,
                     workers=2, seeded=False, window=550, rate=1000.0),
}

# ROADMAP's baseline profile and the work counts it must reproduce.
ANCHOR = Workload("anchor", vertices=1200, adds=30000, query_every=2500,
                  workers=1, seeded=True)
ANCHOR_SEED = 1
ANCHOR_COUNTS = {"msg_received": 1_582_544, "lifts": 20_408, "relabel_runs": 18}


def stream_lines(vertices: int, adds: int, seed: int,
                 cap_hi: int = 3, st_edge_prob: float = 0.01) -> List[str]:
    """The event log ``scripts/gen_stream.py`` writes for these arguments,
    line for line: source 0, sink 1, ``st_edge_prob`` of the edges touch
    the source or the sink, capacities 1..cap_hi, timestamps = event index."""
    rng = random.Random(seed)
    lines = [
        f"# synthetic growth stream: {adds} events, {vertices} vertices, seed {seed}\n",
        "# source=0 sink=1\n",
    ]
    for i in range(adds):
        roll = rng.random()
        if roll < st_edge_prob / 2:
            u, v = 0, rng.randrange(2, vertices)
        elif roll < st_edge_prob:
            u, v = rng.randrange(2, vertices), 1
        else:
            u = rng.randrange(2, vertices)
            v = rng.randrange(2, vertices)
            if u == v:
                v = 2 if u != 2 else 3
        lines.append(f"a {i} {u} {v} {rng.randint(1, cap_hi)}\n")
    return lines


def episode_seed(run_seed: int, index: int) -> int:
    return run_seed * 100_003 + index


def work_counters(engine) -> Dict[str, int]:
    """Deterministic work counts of a seeded engine, read from its
    attributes. ``_steps`` is the only record of scheduler steps."""
    ws = engine.workers
    return {
        "msg_sent": sum(w.msg_sent for w in ws),
        "msg_received": sum(w.msg_received for w in ws),
        "topo_received": sum(w.topo_received for w in ws),
        "lifts": sum(w.ctx.lift_count for w in ws),
        "relabel_runs": engine.gr.runs,
        "sched_steps": getattr(engine, "_steps", 0),
    }


@dataclass
class Episode:
    seed: int
    events: int = 0
    setup_s: float = 0.0
    drive_s: float = 0.0              # wall time of ingest plus queries
    planned: int = 0                  # queries due on this stream
    query_at: List[int] = field(default_factory=list)   # events ingested before each query
    flows: List[int] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    stability: List[float] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)  # open loop: ingest call start minus due
    error: Optional[str] = None
    invariant_errors: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    references: List[int] = field(default_factory=list)
    recompute_ms: List[float] = field(default_factory=list)  # reference time per query
    wrong: int = 0                    # completed queries whose value differs from the reference
    last_progress: float = 0.0

    @property
    def failed(self) -> int:
        return self.planned - len(self.flows) + self.wrong


def setup(wl: Workload, seed: int, tracer=NULL_TRACER):
    """Parse, window and create the engine; returns (events, engine, Episode)."""
    lines = stream_lines(wl.vertices, wl.adds, seed)
    ep = Episode(seed)
    t0 = time.perf_counter()
    with tracer.span("parse"):
        events = list(read_event_log(lines))
    with tracer.span("window"):
        events = list(sliding_window_transform(events, wl.window))
    with tracer.span("create"):
        engine = create_engine(EngineConfig(
            source=SOURCE, sink=SINK, workers=wl.workers,
            deterministic_seed=seed if wl.seeded else None,
        ))
    ep.setup_s = time.perf_counter() - t0
    ep.events = len(events)
    return events, engine, ep


def _query_plan(events, interval: int) -> List[int]:
    """Indices of the events that trigger a query before they are ingested,
    as ``run_cli`` schedules them, plus len(events) for the final query."""
    sched = QuerySchedule(interval)
    plan = [i for i, ev in enumerate(events) if sched.observe(ev.ts)]
    if events:
        plan.append(len(events))
    return plan


def _drive(engine, events, wl: Workload, ep: Episode, plan: List[int]) -> None:
    prev = None
    due_base = time.perf_counter()
    rate = wl.rate

    def query(i: int, due: float) -> None:
        nonlocal prev
        ts = events[i].ts if i < len(events) else events[-1].ts
        res = engine.query(ts)
        ep.latencies_ms.append((time.perf_counter() - due) * 1000.0)
        ep.query_at.append(i)
        ep.flows.append(res.flow_value)
        if prev is not None:
            ep.stability.append(stability_score(res.involved, prev))
        prev = res.involved
        ep.last_progress = time.perf_counter()

    t0 = time.perf_counter()
    points = iter(plan)
    nxt = next(points)
    for i, ev in enumerate(events):
        if rate is None:
            due = time.perf_counter()
        else:
            due = due_base + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            ep.lags_ms.append((time.perf_counter() - due) * 1000.0)
        if i == nxt:
            query(i, due)
            nxt = next(points)
        engine.ingest(ev)
    if rate is None:
        due = time.perf_counter()
    else:
        due = due_base + len(events) / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
    query(len(events), due)
    ep.drive_s = time.perf_counter() - t0


def run_episode(wl: Workload, seed: int, tracer=NULL_TRACER,
                hang_timeout: float = HANG_TIMEOUT_S) -> Episode:
    """Set up and drive one stream. A query that raises or makes no progress
    for ``hang_timeout`` seconds fails the rest of the episode instead of
    stopping the benchmark."""
    with tracer.span("episode"):
        events, engine, ep = setup(wl, seed, tracer)
        plan = _query_plan(events, wl.query_every)
        ep.planned = len(plan)
        gc.collect()
        errors: List[BaseException] = []

        def target():
            try:
                _drive(engine, events, wl, ep, plan)
            except Exception as exc:  # reported as failed queries
                errors.append(exc)

        ep.last_progress = time.perf_counter()
        th = threading.Thread(target=target, name="perfbench-drive", daemon=True)
        th.start()
        while th.is_alive():
            th.join(0.25)
            if th.is_alive() and time.perf_counter() - ep.last_progress > hang_timeout:
                ep.error = f"no query finished within {hang_timeout:.0f} s"
                break
        if errors:
            ep.error = f"{type(errors[0]).__name__}: {errors[0]}"
        if ep.error is None:
            ep.invariant_errors = engine.scan_invariants()
        ep.counters = work_counters(engine)
        engine.close()
    return ep


def check_references(wl: Workload, ep: Episode, reference=max_flow_reference) -> None:
    """Fill ``ep.references`` with the reference flow at every completed
    query's prefix, timing each from-scratch computation, and count the
    queries whose engine value differs."""
    events = list(sliding_window_transform(
        read_event_log(stream_lines(wl.vertices, wl.adds, ep.seed)), wl.window))
    graph = StaticGraph()
    applied = 0
    for n in ep.query_at:
        for ev in events[applied:n]:
            key = (ev.src, ev.dst)
            graph.caps[key] = graph.caps.get(key, 0) + ev.delta
            graph.vertices.update(key)
        applied = n
        t0 = time.perf_counter()
        value, _ = reference(StaticGraph(dict(graph.caps), set(graph.vertices)), SOURCE, SINK)
        ep.recompute_ms.append((time.perf_counter() - t0) * 1000.0)
        ep.references.append(value)
    ep.wrong = sum(1 for got, want in zip(ep.flows, ep.references) if got != want)


def quantile(values: List[float], q: float) -> float:
    """Inclusive-method percentile (q in 0..100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


@dataclass
class RunResult:
    workload: Workload
    seed: int
    episodes: List[Episode]
    setups_s: List[float]
    peak_rss_mb: float
    replay_ok: Optional[bool]         # None: not a seeded workload
    replay_note: str = ""
    traced: List[Episode] = field(default_factory=list)
    untraced_pair_s: float = 0.0
    traced_pair_s: float = 0.0
    tracer: Optional[Tracer] = None

    @property
    def attempted(self) -> int:
        return sum(ep.planned for ep in self.episodes + self.traced)

    @property
    def failed(self) -> int:
        return sum(ep.failed for ep in self.episodes + self.traced)

    @property
    def invariant_errors(self) -> List[str]:
        return [e for ep in self.episodes + self.traced for e in ep.invariant_errors]

    @property
    def correct(self) -> bool:
        return (self.failed == 0 and not self.invariant_errors
                and self.replay_ok is not False)


def _replay(wl: Workload, first: Episode) -> tuple:
    """Run the first stream again: a seeded engine must repeat its work
    counts and flow values exactly."""
    again = run_episode(wl, first.seed)
    same = again.counters == first.counters and again.flows == first.flows
    note = ("replay identical" if same else
            f"replay differs: {first.counters} vs {again.counters}")
    return same, note


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool = False,
                 reference=max_flow_reference,
                 hang_timeout: float = HANG_TIMEOUT_S) -> RunResult:
    """Untraced: episodes until ``seconds`` have passed. Traced: pairs of one
    untraced and one traced episode on the same stream, so the tracing
    overhead is measured on identical work."""
    episodes: List[Episode] = []
    traced: List[Episode] = []
    tracer = Tracer() if trace else None
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    index = 0
    while not episodes or time.perf_counter() - start < seconds:
        ep_seed = episode_seed(seed, index)
        index += 1
        ep = run_episode(wl, ep_seed, hang_timeout=hang_timeout)
        episodes.append(ep)
        check_references(wl, ep, reference)
        if ep.error is not None:
            break
        if tracer is not None:
            with tracer.installed():
                tep = run_episode(wl, ep_seed, tracer, hang_timeout)
            traced.append(tep)
            check_references(wl, tep, reference)
            untraced_s += ep.drive_s
            traced_s += tep.drive_s
            if tep.error is not None:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setups = [ep.setup_s for ep in episodes]
    while len(setups) < MIN_SETUPS:
        _, engine, extra = setup(wl, episode_seed(seed, index))
        index += 1
        engine.close()
        setups.append(extra.setup_s)

    replay_ok, note = None, ""
    if wl.seeded and episodes[0].error is None:
        replay_ok, note = _replay(wl, episodes[0])
        if tracer is not None and traced and traced[0].counters != episodes[0].counters:
            replay_ok, note = False, "traced episode counts differ from untraced"

    return RunResult(wl, seed, episodes, setups, peak_rss_mb, replay_ok, note,
                     traced, untraced_s, traced_s, tracer)


def end_to_end_metrics(r: RunResult) -> Dict[str, float]:
    eps = [ep for ep in r.episodes if ep.drive_s > 0]
    lat = [x for ep in r.episodes for x in ep.latencies_ms]
    stab = [x for ep in r.episodes for x in ep.stability]
    return {
        "events_per_s": sum(ep.events for ep in eps) / sum(ep.drive_s for ep in eps)
        if eps else 0.0,
        "query_ms_p50": statistics.median(lat) if lat else 0.0,
        "query_ms_p90": quantile(lat, 90) if lat else 0.0,
        "stability_pct": statistics.median(stab) if stab else 100.0,
        "recompute_ms": statistics.fmean(
            x for ep in r.episodes for x in ep.recompute_ms) if lat else 0.0,
        "setup_s": statistics.median(r.setups_s),
        "peak_rss_mb": r.peak_rss_mb,
    }


def run_anchor(reference=max_flow_reference) -> Dict[str, object]:
    """ROADMAP's growth profile: the seeded engine's counts must match
    ANCHOR_COUNTS exactly."""
    ep = run_episode(ANCHOR, ANCHOR_SEED, hang_timeout=600.0)
    check_references(ANCHOR, ep, reference)
    got = {k: ep.counters[k] for k in ANCHOR_COUNTS}
    return {"counts": got, "expected": dict(ANCHOR_COUNTS),
            "ok": got == ANCHOR_COUNTS and ep.failed == 0 and not ep.invariant_errors,
            "queries": ep.planned, "failed": ep.failed, "drive_s": ep.drive_s}


def _per_episode(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(r: RunResult) -> Dict[str, float]:
    """Per-layer figures of the traced episodes, from the trace's spans and
    accumulators; totals are given per episode (one stream)."""
    tr = r.tracer
    eps = r.traced
    n = len(eps)
    events = sum(ep.events for ep in eps)
    spans = [sp for sp in tr.spans if sp.end is not None]
    by_name: Dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def dur(name: str) -> float:
        return sum(sp.end - sp.start for sp in by_name.get(name, ()))

    totals = tr.totals()
    acc: Dict[str, List[float]] = {}
    for (_, name), (c, s) in totals.items():
        cell = acc.setdefault(name, [0, 0.0])
        cell[0] += c
        cell[1] += s

    def count(name: str) -> float:
        return acc.get(name, [0, 0.0])[0]

    def secs(name: str) -> float:
        return acc.get(name, [0, 0.0])[1]

    selfs = tr.self_times()
    sched_self = 0.0
    for sp in by_name.get("pump", ()):
        handlers = sum(totals.get((sp.sid, k), [0, 0.0])[1] for k in ("topo_run", "message_run"))
        sched_self += selfs[sp.sid] - handlers
    extract_by_query: Dict[int, float] = {}
    for sp in by_name.get("extract", ()):
        extract_by_query[sp.qid] = extract_by_query.get(sp.qid, 0.0) + sp.end - sp.start
    queries = by_name.get("query", [])
    converge = [(sp.end - sp.start - extract_by_query.get(sp.qid, 0.0)) * 1000.0 for sp in queries]
    extracts = [(sp.end - sp.start) * 1000.0 for sp in by_name.get("extract", ())]
    backlogs = [sp.attrs["backlog"] for sp in queries]
    relabels = by_name.get("relabel", [])
    routed = count("msgs_flow") + count("msgs_cap") + count("msgs_height_only")
    handled = count("msgs_handled")
    query_s = dur("query")

    return {
        "events.parse_us_per_event": _per_episode(dur("parse"), n * r.workload.adds) * 1e6,
        "events.window_us_per_event": _per_episode(dur("window"), events) * 1e6,
        "runtime.ingest_us_per_event": _per_episode(secs("ingest"), count("ingest")) * 1e6,
        "runtime.topo_runs": _per_episode(count("topo_run"), n),
        "runtime.topo_ms": _per_episode(secs("topo_run"), n) * 1000.0,
        "runtime.msgs_handled": _per_episode(handled, n),
        "runtime.msgs_per_event": _per_episode(handled, events),
        "runtime.msgs_per_run": _per_episode(handled, count("message_run")),
        "runtime.msg_run_ms": _per_episode(secs("message_run"), n) * 1000.0,
        "runtime.sched_steps": _per_episode(sum(ep.counters["sched_steps"] for ep in eps), n),
        "runtime.sched_self_ms": _per_episode(sched_self, n) * 1000.0,
        "runtime.converge_ms_p50": statistics.median(converge) if converge else 0.0,
        "runtime.extract_ms_p50": statistics.median(extracts) if extracts else 0.0,
        "runtime.extract_share": _per_episode(dur("extract"), query_s) * 100.0,
        "runtime.backlog_at_query_p50": statistics.median(backlogs) if backlogs else 0.0,
        "runtime.queue_peak": tr.queue_peak,
        "vertex.lifts_per_event": _per_episode(sum(ep.counters["lifts"] for ep in eps), events),
        "vertex.msgs_flow": _per_episode(count("msgs_flow"), n),
        "vertex.msgs_cap": _per_episode(count("msgs_cap"), n),
        "vertex.msgs_height_only": _per_episode(count("msgs_height_only"), n),
        "vertex.height_only_share": _per_episode(count("msgs_height_only"), routed) * 100.0,
        "vertex.handler_ms": _per_episode(secs("handler"), n) * 1000.0,
        "relabel.runs": _per_episode(len(relabels), n),
        "relabel.runs_per_query": _per_episode(len(relabels), len(queries)),
        "relabel.lift_triggered": _per_episode(
            sum(1 for sp in relabels if sp.attrs["trigger"] == "lift"), n),
        "relabel.time_triggered": _per_episode(
            sum(1 for sp in relabels if sp.attrs["trigger"] == "time"), n),
        "relabel.drain_ms": _per_episode(dur("relabel.drain"), n) * 1000.0,
        "relabel.up_ms": _per_episode(dur("relabel.up"), n) * 1000.0,
        "relabel.down_ms": _per_episode(dur("relabel.down"), n) * 1000.0,
        "relabel.msg_share": _per_episode(count("msgs_relabel"), handled) * 100.0,
        "trace.overhead_pct": (_per_episode(r.traced_pair_s, r.untraced_pair_s) - 1.0) * 100.0,
    }


END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "stability_pct": "%",
    "recompute_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "events.parse_us_per_event": "us",
    "events.window_us_per_event": "us",
    "runtime.ingest_us_per_event": "us",
    "runtime.topo_runs": "count",
    "runtime.topo_ms": "ms",
    "runtime.msgs_handled": "count",
    "runtime.msgs_per_event": "msg/event",
    "runtime.msgs_per_run": "msg/run",
    "runtime.msg_run_ms": "ms",
    "runtime.sched_steps": "count",
    "runtime.sched_self_ms": "ms",
    "runtime.converge_ms_p50": "ms",
    "runtime.extract_ms_p50": "ms",
    "runtime.extract_share": "%",
    "runtime.backlog_at_query_p50": "count",
    "runtime.queue_peak": "count",
    "vertex.lifts_per_event": "lift/event",
    "vertex.msgs_flow": "count",
    "vertex.msgs_cap": "count",
    "vertex.msgs_height_only": "count",
    "vertex.height_only_share": "%",
    "vertex.handler_ms": "ms",
    "relabel.runs": "count",
    "relabel.runs_per_query": "run/query",
    "relabel.lift_triggered": "count",
    "relabel.time_triggered": "count",
    "relabel.drain_ms": "ms",
    "relabel.up_ms": "ms",
    "relabel.down_ms": "ms",
    "relabel.msg_share": "%",
    "trace.overhead_pct": "%",
}
