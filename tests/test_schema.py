"""Case documents against schema/job.schema.json, and the schema's bounds.

Every working case file validates against the schema.  Each integer property
the schema bounds with a minimum or a maximum is then set one step outside
that bound in every case document that carries it; the command line must
reject the document with exit 2, verdict "error" and nothing on stderr.
"""

import glob
import json
import os

import pytest

from gcgeo.cli import main

jsonschema = pytest.importorskip("jsonschema")

ROOT = os.path.join(os.path.dirname(__file__), "..")
with open(os.path.join(ROOT, "schema", "job.schema.json")) as _fh:
    SCHEMA = json.load(_fh)
CASES = {
    os.path.basename(p): p
    for p in sorted(glob.glob(os.path.join(ROOT, "cases", "*.json")))
    if not p.endswith("invalid_truncated.json")
}
# fields whose range error must name the field
LOCATED = {"degree_bound", "cases", "dim", "chart.complex_dim"}


def load(name):
    with open(CASES[name]) as fh:
        return json.load(fh)


def bounded_integers(properties, prefix=()):
    """(path, minimum, maximum) of each bounded integer property, nested ones too."""
    for key, spec in sorted(properties.items()):
        path = prefix + (key,)
        if spec.get("type") == "integer" and ("minimum" in spec or "maximum" in spec):
            yield path, spec.get("minimum"), spec.get("maximum")
        yield from bounded_integers(spec.get("properties", {}), path)


def lookup(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def out_of_range_rows():
    for path, lo, hi in bounded_integers(SCHEMA["properties"]):
        outside = ([] if lo is None else [lo - 1]) + ([] if hi is None else [hi + 1])
        for value in outside:
            for name in CASES:
                if lookup(load(name), path) is not None:
                    yield pytest.param(name, path, value, id=f"{name}-{'.'.join(path)}={value}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_file_validates(name):
    jsonschema.validate(load(name), SCHEMA)


def test_bounded_properties():
    paths = {path for path, _, _ in bounded_integers(SCHEMA["properties"])}
    assert paths == {("dim",), ("degree_bound",), ("cases",), ("chart", "complex_dim")}


@pytest.mark.parametrize("name,path,value", list(out_of_range_rows()))
def test_out_of_range_exit_2(name, path, value, tmp_path, capsys):
    doc = load(name)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    code = main([doc["command"], str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    body = json.loads(captured.out)
    assert body["verdict"] == "error"
    where = ".".join(path)
    if where in LOCATED:
        error = body["counterexample"]["error"]
        assert error.startswith(f"{where}: ") and str(value) in error
