import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "gen_stream.py")


def gen(*args):
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--vertices", "3", "--st-edge-prob", "0"], "--vertices must be at least 4"),
        (["--vertices", "2"], "--vertices must be at least 4"),
        (["--cap-hi", "0"], "--cap-hi must be at least 1"),
        (["--events", "-1"], "--events must not be negative"),
        (["--st-edge-prob", "-0.1"], "--st-edge-prob must lie in [0, 1]"),
        (["--st-edge-prob", "1.5"], "--st-edge-prob must lie in [0, 1]"),
    ],
)
def test_bad_arguments_exit_2(args, message):
    proc = gen("--events", "10", *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("st_prob", ["0", "0.5", "1"])
def test_ids_stay_below_vertices(st_prob):
    proc = gen("--events", "300", "--vertices", "4", "--cap-hi", "1",
               "--st-edge-prob", st_prob)
    assert proc.returncode == 0, proc.stderr
    lines = [ln.split() for ln in proc.stdout.splitlines() if not ln.startswith("#")]
    assert len(lines) == 300
    for _, _, u, v, cap in lines:
        assert 0 <= int(u) < 4 and 0 <= int(v) < 4 and u != v
        assert cap == "1"
