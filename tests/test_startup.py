"""What a `gcgeo` process loads: the lazy package exports and per-command imports.

A fresh interpreter records `sys.modules` before it imports anything, so
modules that the interpreter's own start-up loads (through `site`) are never
counted against gcgeo.
"""

import ast
import os
import subprocess
import sys

import pytest

import gcgeo

ROOT = os.path.join(os.path.dirname(__file__), "..")

CHILD = """
import sys
base = set(sys.modules)
stages = {}
import gcgeo
stages["package"] = set(sys.modules) - base
import gcgeo.cli
stages["cli"] = set(sys.modules) - base
code = gcgeo.cli.main(["mukai", "cases/mukai_even_m4.json"])
stages["mukai"] = set(sys.modules) - base
branes = ("gcgeo.branes" in sys.modules, gcgeo.branes.__name__)
print(repr({"code": code, "branes": branes, **{k: sorted(v) for k, v in stages.items()}}))
"""

# modules that neither the `mukai` command nor the parsing of its document needs
NOT_FOR_MUKAI = ("gcgeo.gcs", "gcgeo.fields", "gcgeo.integrability", "gcgeo.algebroid",
                 "gcgeo.branes", "gcgeo.suites", "random")
# the standard library a `mukai` child may load: with what these import in turn, nothing else
STDLIB_FOR_MUKAI = ("json", "fractions", "decimal", "numbers", "time", "__future__")
ALLOWED_CHILD = f"""
import sys
base = set(sys.modules)
import {", ".join(STDLIB_FOR_MUKAI)}
print(repr(sorted(set(sys.modules) - base)))
"""


def run_child(code):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded():
    return run_child(CHILD)


def test_package_import_loads_no_layer(loaded):
    assert [m for m in loaded["package"] if m.startswith("gcgeo.")] == []


def test_cli_import_loads_no_dataclasses(loaded):
    assert "dataclasses" not in loaded["cli"] and "inspect" not in loaded["cli"]


def test_mukai_loads_only_its_layers(loaded):
    assert loaded["code"] == 0
    assert [m for m in NOT_FOR_MUKAI if m in loaded["mukai"]] == []


@pytest.mark.parametrize("stage", ["cli", "mukai"])
def test_no_argparse(loaded, stage):
    # argparse costs a child its own import, `gettext` and, on parsing, `locale`
    assert [m for m in ("argparse", "gettext", "locale") if m in loaded[stage]] == []


def test_mukai_loads_only_allowed_stdlib(loaded):
    allowed = {*STDLIB_FOR_MUKAI, *run_child(ALLOWED_CHILD)}
    stdlib = [m for m in loaded["mukai"] if m != "gcgeo" and not m.startswith("gcgeo.")]
    assert [m for m in stdlib if m not in allowed] == []


def test_submodule_resolves_on_first_use(loaded):
    # not loaded by `mukai`, then imported by the attribute access
    assert loaded["branes"] == (False, "gcgeo.branes")


class TestLazyExports:
    def test_exports_are_the_defining_modules_objects(self):
        for name in gcgeo.__all__:
            obj = getattr(gcgeo, name)
            assert obj.__module__.startswith("gcgeo."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_star_import_binds_every_export(self):
        ns = {}
        exec("from gcgeo import *", ns)
        assert all(ns[name] is getattr(gcgeo, name) for name in gcgeo.__all__)

    def test_submodule_attribute(self):
        import gcgeo.branes

        assert gcgeo.branes is sys.modules["gcgeo.branes"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            gcgeo.nope
        assert not hasattr(gcgeo, "nope")
