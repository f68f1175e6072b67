"""record.Record against stdlib dataclass twins written out by hand.

Each twin declares the same fields and defaults as a gcgeo class, so the two
must agree on repr, equality, hashing, defaults and (im)mutability.
"""

from dataclasses import field, fields, make_dataclass

import pytest

from gcgeo import __version__
from gcgeo.charts import Chart
from gcgeo.clifford import GenVector
from gcgeo.fields import DiracFrame
from gcgeo.gcs import GCStructure
from gcgeo.jobio import Report
from gcgeo.record import Record
from gcgeo.suites import SuiteResult

TWINS = {
    Chart: make_dataclass(
        "Chart", [("names", tuple), ("complex_pairs", tuple, field(default=()))], frozen=True
    ),
    GCStructure: make_dataclass("GCStructure", [("dim", int), ("j", tuple)], frozen=True),
    Report: make_dataclass("Report", [
        ("command", str),
        ("verdict", str),
        ("certificate", dict, field(default=None)),
        ("counterexample", dict, field(default=None)),
        ("seed", int, field(default=None)),
        ("timing_ms", float, field(default=0.0)),
        ("tool_version", str, field(default=__version__)),
    ]),
    SuiteResult: make_dataclass("SuiteResult", [
        ("cases", int),
        ("checked", list, field(default_factory=list)),
        ("failures", list, field(default_factory=list)),
    ]),
}

# (class, args, kwargs) of instances built alike from each class and its twin
SAMPLES = [
    (Chart, (("x", "y"),), {}),
    (Chart, (("x1", "x2"),), {"complex_pairs": ((0, 1),)}),
    (Chart, (), {"names": ("a",)}),
    (GCStructure, (2, ((0, -1), (1, 0))), {}),
    (Report, ("mukai", "pass"), {"certificate": {"pairing": "1"}, "seed": 3}),
    (Report, ("mukai", "error"), {}),
    (SuiteResult, (5,), {}),
    (SuiteResult, (2, ["C1"], [{"case": 0}]), {}),
]


class OtherChart(Record, frozen=True):
    names: tuple
    complex_pairs: tuple = ()


def pair(cls, args, kwargs):
    return cls(*args, **kwargs), TWINS[cls](*args, **kwargs)


@pytest.mark.parametrize("cls,args,kwargs", SAMPLES)
def test_repr_matches_dataclass(cls, args, kwargs):
    rec, twin = pair(cls, args, kwargs)
    assert repr(rec) == repr(twin)


@pytest.mark.parametrize("cls,args,kwargs", SAMPLES)
def test_equality_matches_dataclass(cls, args, kwargs):
    rec, twin = pair(cls, args, kwargs)
    rec2, twin2 = pair(cls, args, kwargs)
    assert (rec == rec2, rec != rec2) == (twin == twin2, twin != twin2) == (True, False)
    assert rec != twin and twin != rec


@pytest.mark.parametrize("cls,args,kwargs", SAMPLES)
def test_hash_and_mutability_match_dataclass(cls, args, kwargs):
    rec, twin = pair(cls, args, kwargs)
    name = fields(twin)[0].name
    if cls in (Report, SuiteResult):
        for obj in (rec, twin):
            with pytest.raises(TypeError):
                hash(obj)
            setattr(obj, name, getattr(obj, name))
        return
    assert hash(rec) == hash(twin)
    for obj in (rec, twin):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("cls,args,kwargs", SAMPLES)
def test_defaults_match_dataclass(cls, args, kwargs):
    rec, twin = pair(cls, args, kwargs)
    names = [f.name for f in fields(twin)]
    assert [getattr(rec, n) for n in names] == [getattr(twin, n) for n in names]


def test_same_fields_other_class_unequal():
    names = ("x", "y")
    assert Chart(names) != OtherChart(names) and not Chart(names) == OtherChart(names)
    assert hash(Chart(names)) == hash(OtherChart(names))


def test_list_defaults_are_not_shared():
    a, b = SuiteResult(1), SuiteResult(1)
    a.checked.append("C1")
    a.failures.append({"case": 0})
    assert b.checked == [] and b.failures == []


def test_report_is_mutable():
    r = Report("mukai", "pass", certificate={"pairing": "1"})
    r.timing_ms = 2.5
    assert r.timing_ms == 2.5 and "timing_ms=2.5" in repr(r)


@pytest.mark.parametrize(
    "args,kwargs",
    [((), {}), ((("x",), (), 3), {}), ((("x",),), {"names": ("y",)}), ((("x",),), {"bad": 1})],
    ids=["missing", "too-many", "repeated", "unknown"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        TWINS[Chart](*args, **kwargs)
    with pytest.raises(TypeError):
        Chart(*args, **kwargs)


def test_post_init_checks_still_raise():
    with pytest.raises(ValueError, match="distinct"):
        Chart(("x", "x"))
    with pytest.raises(ValueError, match="frame needs 2 sections"):
        DiracFrame(Chart.real("x", "y"), ())
    with pytest.raises(ValueError, match="exactly one"):
        Report("mukai", "pass")


def test_trusted_skips_post_init_only():
    chart = Chart.real("x", "y")
    secs = (GenVector.basis_vector(2, 0), GenVector.basis_vector(2, 1))
    checked = DiracFrame(chart, secs)
    assert DiracFrame._trusted(chart, secs) == checked
    assert DiracFrame._trusted(chart, sections=secs, samples=()) == checked
    # no isotropy check: the caller has proved what __post_init__ would test
    bad = (GenVector.basis_vector(2, 0), GenVector.basis_covector(2, 0))
    with pytest.raises(ValueError, match="inner product"):
        DiracFrame(chart, bad)
    assert DiracFrame._trusted(chart, bad).sections == bad
    with pytest.raises(TypeError):
        DiracFrame._trusted(chart)
