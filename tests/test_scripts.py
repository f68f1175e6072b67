"""The scripts under scripts/ run end to end at small sizes.

Each runs as a child process with the package on PYTHONPATH, must exit 0,
and must print its summary line.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,summary",
    [
        ("darboux_demo.py", ["--cases", "10"], "10 structures decomposed"),
        ("type_jump_map.py", ["--radius", "1"], "the jump to type 2 happens exactly on z1 = 0"),
        ("axiom_fuzz.py", ["--cases", "8"], "axioms: 8 cases, "),
    ],
)
def test_script_runs(script, args, summary):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stdout
