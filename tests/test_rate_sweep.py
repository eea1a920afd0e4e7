import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "rate_sweep.py")
GEN = os.path.join(ROOT, "scripts", "gen_stream.py")


def sweep(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, SCRIPT, "--source", "0", "--sink", "1", *args],
                          capture_output=True, text=True, timeout=120, env=env)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--fractions", "0"], "--fractions must all be positive and finite"),
        (["--fractions", "0.5,-1"], "--fractions must all be positive and finite"),
        (["--fractions", "nan"], "--fractions must all be positive and finite"),
        (["--fractions", "inf"], "--fractions must all be positive and finite"),
        (["--fractions", "half"], "--fractions must be comma-separated numbers"),
        (["--query-interval", "0"], "--query-interval must be positive"),
        (["--workers", "0"], "--workers must be at least 1"),
    ],
)
def test_bad_arguments_exit_2_before_the_log_is_read(tmp_path, args, message):
    # the log does not exist: reading it first would end in a traceback
    settings = {"--input": str(tmp_path / "missing.log"), "--query-interval": "50"}
    for flag, value in zip(args[::2], args[1::2]):
        settings[flag] = value
    proc = sweep(*[x for kv in settings.items() for x in kv])
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_small_sweep_runs(tmp_path):
    log = tmp_path / "s.log"
    gen = subprocess.run([sys.executable, GEN, "--events", "300", "--vertices", "40",
                          "--seed", "3", "--out", str(log)],
                         capture_output=True, text=True, timeout=60)
    assert gen.returncode == 0, gen.stderr
    proc = sweep("--input", str(log), "--query-interval", "50", "--fractions", "0.5")
    assert proc.returncode == 0, proc.stderr
    assert "300 events" in proc.stdout
    assert "offered   50% of saturation" in proc.stdout
