"""Every case file's report is byte-identical to its golden copy.

The golden reports in tests/golden/ omit `timing_ms`; regenerate them with
`PYTHONPATH=src python3 scripts/golden.py` only when a report is meant to
change.
"""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "golden.py")
_spec = importlib.util.spec_from_file_location("golden_script", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_case_has_a_golden_report():
    assert sorted(os.listdir(golden.GOLDEN)) == golden.case_names()


@pytest.mark.parametrize("name", golden.case_names())
def test_report_matches_golden(name):
    with open(golden.golden_path(name)) as fh:
        assert golden.report(name) == fh.read()
