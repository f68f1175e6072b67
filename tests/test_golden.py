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


def test_check_passes_on_the_committed_reports(capsys):
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == ""


def test_check_lists_differences_and_writes_nothing(tmp_path, monkeypatch, capsys):
    names = golden.case_names()
    for name in names[1:]:
        with open(golden.golden_path(name)) as src:
            (tmp_path / name).write_text(src.read())
    changed = tmp_path / names[1]
    changed.write_text(changed.read_text() + " ")
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    monkeypatch.setattr(golden, "GOLDEN", str(tmp_path))
    assert golden.main(["--check"]) == 1
    assert capsys.readouterr().out.split() == [names[0], names[1]]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before
