"""Fuzzing the CLI with job documents of the wrong shape.

Each example takes one `cases/*.json` document and replaces one value in it
(the whole document, a member, or a list element) with a value of another
JSON type: a small int, a string, a list, an object or null.  An int never
replaces a number, and the strings hold no number above 1, so no mutation
makes a size larger and the math stays as cheap as in the case files.  The
run must end in exit code 0, 1 or 2 with no exception escaping `cli.main`;
exit 1 must carry a counterexample.  A second property gives `brane-check`
an F whose terms have random degrees 0..4: it must exit 2, located at
`submanifold`, unless every term has degree 2.
"""

import glob
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gcgeo.cli import main
from gcgeo.gcs import j_complex, j_symplectic, standard_complex_endo
from gcgeo.jobio import matrix_json

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


DOCS = {
    os.path.basename(p): _load(p)
    for p in sorted(glob.glob(os.path.join(CASES, "*.json")))
    if not p.endswith("invalid_truncated.json")
}

SCALARS = st.one_of(st.integers(0, 3), st.sampled_from(["", "x", "0", "1", "1/2", "i"]), st.none())
KEYS = st.sampled_from(["coeff", "basis", "vec", "covec", "kind", "form", "vars", "x"])
REPLACEMENTS = {
    "int": st.integers(0, 3),
    "str": st.sampled_from(["", "x", "0", "1", "1/2", "i", "x1"]),
    "list": st.lists(st.one_of(SCALARS, st.just({}), st.just([])), max_size=2),
    "object": st.dictionaries(KEYS, SCALARS, max_size=2),
    "null": st.none(),
}


def kind(value) -> str:
    for name, types in (("int", (int, float)), ("str", str), ("list", list), ("object", dict)):
        if isinstance(value, types):
            return name
    return "null"


def positions(value, path=()):
    """The path of every value inside a JSON document, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from positions(child, path + (key,))


def replaced(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return doc


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_document_exits_0_1_or_2(data, tmp_path_factory, capsys):
    name = data.draw(st.sampled_from(sorted(DOCS)), label="case")
    doc = DOCS[name]
    path = data.draw(st.sampled_from(list(positions(doc))), label="path")
    old = doc
    for key in path:
        old = old[key]
    new_kind = data.draw(st.sampled_from(sorted(set(REPLACEMENTS) - {kind(old)})), label="kind")
    new = data.draw(REPLACEMENTS[new_kind], label="value")
    job = tmp_path_factory.mktemp("fuzz") / name
    job.write_text(json.dumps(replaced(doc, path, new)))
    code = main([doc["command"], str(job)])
    body = json.loads(capsys.readouterr().out)
    assert code in (0, 1, 2)
    if code == 1:
        assert body["counterexample"]


BASES = st.lists(
    st.sampled_from([0, 1, 2, 2, 2, 3, 4]).flatmap(
        lambda k: st.lists(st.integers(1, 4), min_size=k, max_size=k, unique=True).map(sorted)
    ),
    min_size=1, max_size=4, unique_by=tuple,
)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bases=BASES, coeffs=st.lists(st.sampled_from(["1", "-2", "1/2", "3"]), min_size=4, max_size=4),
       j=st.sampled_from(["complex", "symplectic"]))
def test_f_of_any_other_degree_exits_2(bases, coeffs, j, tmp_path_factory, capsys):
    # a space-filling brane whose F has terms of random degree 0..4
    make = j_complex if j == "complex" else j_symplectic
    doc = {
        "schema_version": 1,
        "command": "brane-check",
        "chart": {"complex_dim": 2},
        "matrix": matrix_json(make(standard_complex_endo(2)).matrix()),
        "submanifold": {
            "params": [1, 2, 3, 4],
            "f": [{"coeff": c, "basis": b} for b, c in zip(bases, coeffs)],
        },
    }
    job = tmp_path_factory.mktemp("f_degree") / "brane.json"
    job.write_text(json.dumps(doc))
    code = main(["brane-check", str(job)])
    body = json.loads(capsys.readouterr().out)
    if all(len(b) == 2 for b in bases):
        assert code in (0, 1)
    else:
        assert code == 2
        assert body["counterexample"]["error"] == "submanifold: F must be a 2-form"
