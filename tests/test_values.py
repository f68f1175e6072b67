"""The slotted value types are immutable, and pickle and copy to equal values."""

import copy
import pickle
from fractions import Fraction

import pytest

from gcgeo.scalars import GaussRat, Poly, HALF, IUNIT, ONE
from gcgeo.forms import MixedForm
from gcgeo.clifford import BlockTransform, GenVector, SoElement
from gcgeo.gcs import j_symplectic, standard_symplectic_map, validate_gc
from gcgeo import linalg

VARS = ("x", "y")
G = GaussRat(Fraction(-3, 4), Fraction(5, 6))
P = Poly(VARS, {(1, 0): G, (0, 2): IUNIT, (0, 0): ONE})
SHEAR = [[GaussRat(0), G + G.conj()], [-G - G.conj(), GaussRat(0)]]


def made_values():
    """(label, value) for each way a slotted value is made."""
    return [
        ("GaussRat(int, int)", GaussRat(3, -2)),
        ("GaussRat(Fraction)", G),
        ("GaussRat._raw", GaussRat._raw(6, -4, -8)),
        ("-GaussRat", -G),
        ("GaussRat.conj", G.conj()),
        ("Poly()", P),
        ("Poly._raw", Poly._raw(VARS, {(1, 1): HALF})),
        ("-Poly", -P),
        ("Poly.conj", P.conj()),
        ("MixedForm()", MixedForm(3, {3: G, 5: P.const(VARS, 2)})),
        ("MixedForm(mv)", MixedForm(2, {3: G}, "mv")),
        ("MixedForm._raw", MixedForm._raw(2, {1: P}, "form")),
        ("-MixedForm", -MixedForm(2, {2: G})),
        ("MixedForm.conj", MixedForm(2, {2: G}).conj()),
        ("GenVector()", GenVector(2, [G, ONE], [P, -G])),
        ("-GenVector", -GenVector(2, [G, ONE], [P, -G])),
        ("GenVector.conj", GenVector(2, [G, ONE], [P, -G]).conj()),
        ("SoElement()", SoElement(2, a=[[ONE, G], [HALF, IUNIT]], b_map=SHEAR)),
        ("BlockTransform(B)", BlockTransform(2, "B", SHEAR)),
        ("BlockTransform(gl)", BlockTransform(2, "gl", [[ONE, G], [GaussRat(0), HALF]])),
    ]


def slots(v):
    return tuple(getattr(v, name) for name in type(v).__slots__)


@pytest.mark.parametrize("label,value", made_values(), ids=[lab for lab, _ in made_values()])
def test_assignment_and_del_raise(label, value):
    before = slots(value)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    with pytest.raises(AttributeError, match="immutable"):
        value.other = 1
    assert slots(value) == before


def symplectic_b_transform():
    """A GCStructure with fractional entries: e^B J_omega e^-B for a real B."""
    j = j_symplectic(standard_symplectic_map(1)).matrix()
    e_b = BlockTransform(2, "B", SHEAR).orth_matrix()
    e_minus_b = BlockTransform(2, "B", [[-x for x in r] for r in SHEAR]).orth_matrix()
    return validate_gc(linalg.mat_mul(e_b, linalg.mat_mul(j, e_minus_b)))


ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-2": lambda v: pickle.loads(pickle.dumps(v, protocol=2)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("label,value", made_values(), ids=[lab for lab, _ in made_values()])
def test_values_round_trip(label, value, how):
    out = ROUND_TRIPS[how](value)
    assert type(out) is type(value)
    assert slots(out) == slots(value)
    if "__eq__" in vars(type(value)):
        assert out == value


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_gc_structure_round_trips(how):
    s = symplectic_b_transform()
    out = ROUND_TRIPS[how](s)
    assert type(out) is type(s) and out == s
