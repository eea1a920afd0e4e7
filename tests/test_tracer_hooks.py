"""The benchmark's tracer (``perfbench/tracer.py``) wraps runtime and vertex
entry points by name: ``Worker.topo_run``, ``Worker.message_run``,
``Worker.route``, ``ThreadedEngine.query``, the handlers looked up through
``vertex`` at call time, and it reads ``Worker.chans``, ``Worker.topo`` and
``Worker.msg_received``. These runs load the tracer as it is and drive a
seeded and a threaded engine under it, so renaming or reshaping one of
those names fails here and not only in the benchmark's own checks."""

import importlib.util
import os
import random

import pytest

from helpers import growth_stream
from liveflow import max_flow_reference, sliding_window_transform
from liveflow.runtime import EngineConfig, SimEngine, ThreadedEngine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def window_stream():
    events = growth_stream(random.Random(7), events=400, vertices=30, st_edge_prob=0.1)
    return list(sliding_window_transform(events, 80))


def drive(eng, events, every=40):
    """Ingest ``events``, querying every ``every`` events and at the end;
    returns (engine flow, reference flow) per query."""
    pairs = []

    def query(ts=None):
        got = eng.query(ts).flow_value
        want, _ = max_flow_reference(eng.store.snapshot(), 0, 1)
        pairs.append((got, want))

    for i, ev in enumerate(events):
        if i and i % every == 0:
            query(ev.ts)
        eng.ingest(ev)
    query()
    return pairs


@pytest.mark.parametrize("engine", [SimEngine, ThreadedEngine], ids=["seeded", "threaded"])
def test_traced_run_keeps_flows_and_records_handler_runs(engine):
    seed = 3 if engine is SimEngine else None
    tr = load_tracer().Tracer()
    with tr.installed():
        eng = engine(EngineConfig(source=0, sink=1, workers=2, deterministic_seed=seed))
        try:
            pairs = drive(eng, window_stream())
        finally:
            eng.close()
    assert [got for got, _ in pairs] == [want for _, want in pairs]
    assert any(want > 0 for _, want in pairs)

    assert sum(sp.name == "query" for sp in tr.spans) == len(pairs)
    totals = {}
    for (_, name), (count, _) in tr.totals().items():
        totals[name] = totals.get(name, 0) + count
    assert totals["topo_run"] > 0 and totals["message_run"] > 0
    received = sum(w.msg_received for w in eng.workers)
    assert totals["msgs_handled"] == received
