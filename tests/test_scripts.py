"""Smoke tests for the experiment scripts: each runs in a fresh interpreter
on small arguments and prints its headline result."""

import os
import subprocess
import sys
from pathlib import Path

import jointmeas

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(jointmeas.__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_gamma_family_sweep_probes_the_corners():
    out = run_script("gamma_family_sweep.py", "--steps", "3")
    probes = [line for line in out.splitlines() if line.startswith("gamma = ")]
    assert len(probes) == 3
    # the interior member has room above its corner cell, the upper end none
    assert "NOT_MAXIMAL" in probes[1]
    assert "MAXIMAL_WITHIN" in probes[2]


def test_scan_triple_lengths_prints_both_thresholds(tmp_path):
    out = run_script(
        "scan_triple_lengths.py", "--steps", "3",
        "--json-out", str(tmp_path / "rows.json"),
    )
    assert "pairwise threshold 1/sqrt(2) = 0.707106781187" in out
    assert "triple threshold   1/sqrt(3) = 0.57735026919" in out
    assert (tmp_path / "rows.json").exists()
