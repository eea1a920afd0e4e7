"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root:  python -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
from liveflow import max_flow_reference  # noqa: E402
from liveflow import vertex as lf_vertex  # noqa: E402

TINY = {
    "growth": dict(vertices=30, adds=300, query_every=60),
    "window-poll": dict(vertices=30, adds=300, query_every=20, window=60),
    "live": dict(vertices=30, adds=300, query_every=60, window=60, rate=3000.0),
}


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], **TINY[name])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_harness():
    b = spec()
    assert {w["name"] for w in b["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == harness.LAYER_UNITS


def test_streams_match_gen_stream_script():
    script = os.path.join(ROOT, "scripts", "gen_stream.py")
    if not os.path.isfile(script):
        pytest.skip("scripts/gen_stream.py not present")
    out = subprocess.run(
        [sys.executable, script, "--events", "400", "--vertices", "50", "--seed", "7"],
        capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "".join(harness.stream_lines(50, 400, 7))


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name):
    r = harness.run_workload(tiny(name), seed=5, seconds=0.2)
    assert r.correct, (r.failed, r.invariant_errors, r.replay_note)
    assert r.attempted > 0 and r.failed == 0
    assert r.replay_ok is (True if r.workload.seeded else None)
    metrics = harness.end_to_end_metrics(r)
    assert set(metrics) == set(harness.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values()), metrics

    r = harness.run_workload(tiny(name), seed=5, seconds=0.2, trace=True)
    assert r.correct and r.traced
    layers = harness.layer_metrics(r)
    assert set(layers) == set(harness.LAYER_UNITS)
    assert layers["runtime.msgs_handled"] > 0 and layers["vertex.handler_ms"] > 0
    if r.workload.seeded:
        assert layers["runtime.msgs_handled"] == pytest.approx(
            sum(ep.counters["msg_received"] for ep in r.traced) / len(r.traced))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth", "--seed", "3",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    b = spec()
    wanted = b["per_layer"] if trace == "1" else b["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_wrong_reference_fails_the_run():
    def off_by_one(graph, s, t):
        value, flow = max_flow_reference(graph, s, t)
        return value + 1, flow

    r = harness.run_workload(tiny("growth"), seed=5, seconds=0.1, reference=off_by_one)
    assert not r.correct
    assert r.failed == r.attempted > 0


def test_engine_error_counts_as_failed_queries(monkeypatch):
    orig = lf_vertex.on_message_received
    calls = [0]

    def faulty(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 200:
            raise lf_vertex.InvariantViolation("injected fault")
        return orig(*args, **kwargs)

    monkeypatch.setattr(lf_vertex, "on_message_received", faulty)
    r = harness.run_workload(tiny("window-poll"), seed=5, seconds=0.1)
    assert not r.correct and r.failed > 0
    assert "injected fault" in r.episodes[-1].error


def test_lost_worker_hang_counts_as_failed_queries():
    # A worker thread that dies leaves ThreadedEngine.query waiting forever;
    # run in a child process so the stuck thread ends with it.
    script = f"""
import dataclasses, json, sys
sys.path[:0] = [{os.path.join(ROOT, "src")!r}, {HERE!r}]
import harness
from liveflow import vertex as vx
orig, calls = vx.on_message_received, [0]
def faulty(*a, **k):
    calls[0] += 1
    if calls[0] == 200:
        raise vx.InvariantViolation("injected fault")
    return orig(*a, **k)
vx.on_message_received = faulty
wl = dataclasses.replace(harness.WORKLOADS["live"], **{TINY["live"]!r})
r = harness.run_workload(wl, seed=5, seconds=0.1, hang_timeout=1.0)
print(json.dumps({{"correct": r.correct, "failed": r.failed, "error": r.episodes[-1].error}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not res["correct"] and res["failed"] > 0
    assert "no query finished" in res["error"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_growth_anchor_counts():
    res = harness.run_anchor()
    assert res["counts"] == harness.ANCHOR_COUNTS
    assert res["ok"]
