"""Smoke test of the benchmark: every workload at toy size, both modes.

Run from the repository root: python3 -m pytest perfbench
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def test_smoke_prints_every_metric_with_its_unit():
    out = subprocess.run([sys.executable, RUN, "--smoke"], cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_sources(tmp_path):
    out = subprocess.run([sys.executable, RUN, "--workload", "pointwise", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
