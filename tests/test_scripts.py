"""Smoke tests of the experiment scripts, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

from nbqc.decode import SimResultRow

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_fer_sweep_script():
    proc = run_script("fer_sweep.py", "--trials", "50")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == SimResultRow.CSV_HEADER
    assert len(lines) == 5  # one row per default SNR point


def test_network_comparison_script():
    proc = run_script("network_comparison.py")
    assert proc.returncode == 0, proc.stderr
    assert "Benes model: stages=" in proc.stdout
