import os
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab_bench.py")


def test_sigterm_removes_the_base_export(tmp_path):
    if subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, SCRIPT, "--base", "HEAD", "--interleave", "1"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not list(tmp_path.glob("ab_bench-*")):
            assert proc.poll() is None, "the script ended before its export existed"
            assert time.monotonic() < deadline, "no export appeared within 30 s"
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert code != 0
    assert list(tmp_path.glob("ab_bench-*")) == []


@pytest.mark.parametrize("args, message", [
    (["--workload", "nope"], "invalid choice: 'nope'"),
    (["--seconds", "nan"], "--seconds must be positive and finite"),
    (["--seconds", "inf"], "--seconds must be positive and finite"),
    (["--seconds", "0"], "--seconds must be positive and finite"),
    (["--seconds", "-1"], "--seconds must be positive and finite"),
], ids=["unknown_workload", "nan_seconds", "inf_seconds", "zero_seconds", "negative_seconds"])
def test_bad_arguments_exit_2_before_the_base_is_exported(tmp_path, args, message):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--base", "HEAD", "--pairs", "1", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert list(tmp_path.glob("ab_bench-*")) == []


def test_interleave_ends_with_equal_summed_counts_against_head(tmp_path):
    if subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    if subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD", "--", "src"]).returncode:
        pytest.skip("src/ differs from HEAD, so the two sides' counts may differ")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--base", "HEAD", "--interleave", "1",
         "--workload", "growth"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    head = lines.index("work counts: the 4 streams driven, summed")
    assert lines[head + 1].split() == ["work", "count", "base", "change", "change/base"]
    rows = {row.split()[0]: row.split()[1:] for row in lines[head + 2:]}
    assert set(rows) == {"msg_sent", "msg_received", "topo_received", "lifts",
                         "relabel_runs", "sched_steps", "invariant_errors"}
    for name, (base, change, _) in rows.items():
        assert base == change, name
    assert int(rows["msg_sent"][0]) > 0
    assert rows["invariant_errors"][:2] == ["0", "0"]
    assert proc.returncode == 0, proc.stdout + proc.stderr
