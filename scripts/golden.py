#!/usr/bin/env python3
"""Regenerate the golden reports in tests/golden/ from cases/*.json.

Each case file is run in process through `gcgeo.cli.main` with the command
named in the file (`invalid_truncated.json`, which cannot be parsed, runs
under `null-space`).  The report's `timing_ms` line is dropped, so the golden
file is byte-stable; tests/test_golden.py asserts that every report still
matches.  Paths are given relative to the repository root, because error
reports name the file they could not read.

    PYTHONPATH=src python3 scripts/golden.py          # rewrite tests/golden/
    PYTHONPATH=src python3 scripts/golden.py --check  # compare, write nothing

--check regenerates every report in memory, prints the case files whose
report differs from (or is missing in) tests/golden/, and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
UNPARSABLE = {"invalid_truncated.json": "null-space"}


def case_names() -> list:
    return sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "cases", "*.json")))


def report(name: str) -> str:
    """The JSON report of one case file, without its timing_ms line."""
    from gcgeo.cli import main

    command = UNPARSABLE.get(name)
    if command is None:
        with open(os.path.join(ROOT, "cases", name)) as fh:
            command = json.load(fh)["command"]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            main([command, os.path.join("cases", name)])
    finally:
        os.chdir(cwd)
    lines = out.getvalue().splitlines(keepends=True)
    return "".join(line for line in lines if not line.lstrip().startswith('"timing_ms"'))


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, name)


def differing() -> list:
    """Case files whose report is not byte-identical to its golden copy."""
    out = []
    for name in case_names():
        try:
            with open(golden_path(name)) as fh:
                golden = fh.read()
        except FileNotFoundError:
            golden = None
        if report(name) != golden:
            out.append(name)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="list the case files whose report differs; write nothing")
    args = p.parse_args(argv)
    if args.check:
        names = differing()
        for name in names:
            print(name)
        return 1 if names else 0
    os.makedirs(GOLDEN, exist_ok=True)
    for name in case_names():
        with open(golden_path(name), "w") as fh:
            fh.write(report(name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
