"""Constants stay GaussRats: the field layer gives the same answers with or
without lifting them into the chart ring.

`lift` below is the coercion the library used to apply at its call sites
(a constant becomes a constant Poly over the chart).  Each test builds a
seeded input whose constant coefficients are GaussRats, lifts every one of
them, and checks that both inputs give equal results: equal values, the
same verdicts and the same witnesses.
"""

import pytest

from gcgeo.scalars import GaussRat, IUNIT, ONE, Poly
from gcgeo.forms import MixedForm, map_from_two_form
from gcgeo.clifford import GenVector
from gcgeo.charts import Chart
from gcgeo.fields import (
    ClosedThreeForm,
    DiracFrame,
    b_transform_section,
    courant_bracket,
    d,
    schouten,
)
from gcgeo.gcs import GCStructure, j_complex, standard_complex_endo, validate_gc
from gcgeo.integrability import (
    check_spinor_integrability,
    deform_by_bivector,
    hamiltonian_section,
    holomorphic_bivector,
    modular_vector_field,
    nijenhuis_field,
)
from gcgeo.branes import SubmanifoldData, pullback_dirac
from gcgeo.randgen import Rng
from gcgeo import linalg


R2 = Chart.real("x", "y")
R3 = Chart.real("x", "y", "z")
R4 = Chart.real("x1", "x2", "x3", "x4")
C2 = Chart.complex_plane(2)
SEEDS = range(3)


def lift(chart, c):
    """A constant coerced into the chart ring; a Poly is kept as is."""
    return c if isinstance(c, Poly) else Poly.const(chart.names, c)


def lower(c):
    """A constant Poly as the GaussRat it stands for; anything else as is."""
    return c.const_value() if isinstance(c, Poly) and c.is_const else c


def each_coeff(x, f):
    """x with f applied to every coefficient of a form, section, structure or matrix."""
    if isinstance(x, MixedForm):
        return x.map_coeffs(f)
    if isinstance(x, GenVector):
        return GenVector(x.dim, map(f, x.vec), map(f, x.covec))
    if isinstance(x, GCStructure):
        return GCStructure(x.dim, tuple(tuple(map(f, row)) for row in x.j))
    if isinstance(x, ClosedThreeForm):
        return ClosedThreeForm(x.chart, each_coeff(x.form, f))
    if isinstance(x, DiracFrame):
        return DiracFrame(x.chart, tuple(each_coeff(u, f) for u in x.sections), x.samples)
    return f(x)


def lifted(chart, x):
    return each_coeff(x, lambda c: lift(chart, c))


def coeffs(x):
    """The coefficients of a form, section, structure, twist or frame."""
    if isinstance(x, MixedForm):
        return list(x.terms.values())
    if isinstance(x, GenVector):
        return x.coords()
    if isinstance(x, GCStructure):
        return [c for row in x.j for c in row]
    if isinstance(x, ClosedThreeForm):
        return coeffs(x.form)
    if isinstance(x, DiracFrame):
        return [c for u in x.sections for c in coeffs(u)]
    return [x]


def assert_has_constants(*xs):
    """The unlifted inputs really hold GaussRat coefficients."""
    assert any(type(c) is GaussRat and c for x in xs for c in coeffs(x))


def mixed_form(rng, chart):
    m = chart.dim
    return rng.poly_two_form(chart, 1) + rng.form(m, terms=4)


def mixed_section(rng, chart):
    m = chart.dim
    pick = lambda: rng.poly(chart, 1, 2) if rng.r.random() < 0.5 else rng.gauss(2)
    return GenVector(m, [pick() for _ in range(m)], [pick() for _ in range(m)])


def constant_twist(rng, chart):
    return ClosedThreeForm(chart, MixedForm(chart.dim, {0b0111: rng.gauss(2, False)}))


def b_conjugated(rng, chart, s):
    """e^B J e^-B for a polynomial 2-form B: a structure with mixed entries."""
    m = chart.dim
    bmap = map_from_two_form(rng.poly_two_form(chart, 1))
    one, zero = linalg.identity(m), linalg.zeros(m, m)
    e = linalg.from_blocks(one, zero, bmap, one)
    einv = linalg.from_blocks(one, zero, [[-x for x in row] for row in bmap], one)
    return validate_gc(linalg.mat_mul(e, linalg.mat_mul(s.matrix(), einv)))


@pytest.mark.parametrize("seed", SEEDS)
def test_d(seed):
    phi = mixed_form(Rng(seed), R4)
    assert_has_constants(phi)
    assert d(R4, phi) == d(R4, lifted(R4, phi))


@pytest.mark.parametrize("seed", SEEDS)
def test_courant_bracket(seed):
    rng = Rng(seed)
    e1, e2, h = mixed_section(rng, R3), mixed_section(rng, R3), constant_twist(rng, R3)
    assert_has_constants(e1, e2, h)
    for twist in (None, h):
        want = courant_bracket(R3, lifted(R3, e1), lifted(R3, e2), twist and lifted(R3, twist))
        assert courant_bracket(R3, e1, e2, twist) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_schouten(seed):
    rng = Rng(seed)
    p = rng.multivector(R3, 2, 1) + MixedForm(3, {0b011: rng.gauss(2)}, "mv")
    q = rng.multivector(R3, 1, 2) + MixedForm(3, {0b100: rng.gauss(2)}, "mv")
    assert_has_constants(p, q)
    assert schouten(R3, p, q) == schouten(R3, lifted(R3, p), lifted(R3, q))


@pytest.mark.parametrize("seed", SEEDS)
def test_nijenhuis_field(seed):
    rng = Rng(seed)
    s = b_conjugated(rng, R4, rng.gc_structure(4, seed % 3, conjugations=1))
    h = constant_twist(rng, R4)
    assert_has_constants(s, h)
    assert nijenhuis_field(R4, s, h) == nijenhuis_field(R4, lifted(R4, s), lifted(R4, h))


def holomorphic_spinor(rng):
    """f + dz_1 ^ dz_2 for a holomorphic f: integrable with a polynomial witness."""
    f = C2.holo({(a, b): rng.gauss(2) for a in range(3) for b in range(3 - a)})
    return MixedForm(4, {0: f}) + C2.dz(0).wedge(C2.dz(1)).map_coeffs(lower)


@pytest.mark.parametrize("seed", SEEDS)
def test_spinor_integrability(seed):
    rng = Rng(seed)
    w = rng.two_form(4)
    nonclosed = MixedForm(4, {0b0011: ONE, 0b1100: ONE, 0b0101: R4.var("x2")})
    cases = [
        (C2, holomorphic_spinor(rng), None),
        (R4, (w.scale(IUNIT) + rng.poly_two_form(R4, 1)).exp_wedge(), None),
        (R4, nonclosed.scale(IUNIT).exp_wedge(), None),
        (R4, (w.scale(IUNIT) + MixedForm(4, {0b0011: ONE})).exp_wedge(), constant_twist(rng, R4)),
    ]
    for chart, phi, h in cases:
        assert_has_constants(phi)
        got = check_spinor_integrability(chart, phi, h)
        want = check_spinor_integrability(chart, lifted(chart, phi), h and lifted(chart, h))
        assert got == want
    # a supplied witness with constant entries
    phi = holomorphic_spinor(rng)
    witness = check_spinor_integrability(C2, phi).witness
    for w in (each_coeff(witness, lower), mixed_section(rng, C2)):
        got = check_spinor_integrability(C2, phi, witness=w)
        want = check_spinor_integrability(C2, lifted(C2, phi), witness=lifted(C2, w))
        assert (got.verdict, got.witness) == (want.verdict, want.witness)


@pytest.mark.parametrize("seed", SEEDS)
def test_modular_vector_field(seed):
    rng = Rng(seed)
    beta = MixedForm(2, {0b11: rng.poly(R2, 2, 3)}, "mv")
    vol = MixedForm.top(2, rng.gauss(2, False) or ONE)
    assert_has_constants(vol)
    for f in (None, rng.poly(R2, 2, 2)):
        got = modular_vector_field(R2, beta, vol, log_factor=f)
        assert got == modular_vector_field(R2, beta, lifted(R2, vol), log_factor=f)
    # a constant Poisson bivector on R^3
    beta3 = MixedForm(3, {0b011: rng.gauss(2), 0b110: rng.gauss(2)}, "mv")
    vol3 = MixedForm.top(3, rng.gauss(2, False) or ONE)
    assert_has_constants(beta3, vol3)
    got = modular_vector_field(R3, beta3, vol3)
    assert got == modular_vector_field(R3, lifted(R3, beta3), lifted(R3, vol3))


@pytest.mark.parametrize("seed", SEEDS)
def test_hamiltonian_section(seed):
    rng = Rng(seed)
    for s in (rng.gc_structure(4, seed % 3), b_conjugated(rng, R4, rng.gc_structure(4, 0))):
        assert_has_constants(s)
        f_re, f_im = rng.poly(R4, 2, 3), rng.poly(R4, 2, 3)
        got = hamiltonian_section(R4, s, f_re, f_im)
        assert got == hamiltonian_section(R4, lifted(R4, s), f_re, f_im)


@pytest.mark.parametrize("seed", SEEDS)
def test_deform_by_bivector(seed):
    rng = Rng(seed)
    base = j_complex(standard_complex_endo(2))
    f = C2.holo({(a, b): rng.gauss(2) for a in range(2) for b in range(2 - a)})
    for g in (f, C2.one()):
        beta = holomorphic_bivector(C2, {(0, 1): g}).map_coeffs(lower)
        got = deform_by_bivector(C2, base, beta)
        want = deform_by_bivector(C2, lifted(C2, base), lifted(C2, beta))
        assert linalg.mat_eq(got.structure.matrix(), want.structure.matrix())
        assert got.spinor == want.spinor
        assert got.frame.sections == want.frame.sections
        assert got.beta_mv == want.beta_mv


@pytest.mark.parametrize("seed", SEEDS)
def test_pullback_dirac(seed):
    rng = Rng(seed)
    b_amb = rng.poly_two_form(R4, 1) + rng.two_form(4)
    frame = DiracFrame(
        R4, tuple(b_transform_section(R4, b_amb, GenVector.basis_vector(4, i)) for i in range(4))
    )
    assert_has_constants(frame)
    x1 = Poly.var(("x1", "x2"), "x1")
    graph = {2: x1 * x1 + rng.gauss(2, False), 3: Poly.zero(("x1", "x2"))}
    f2 = MixedForm(2, {0b11: rng.gauss(2, False)})
    got = pullback_dirac(frame, SubmanifoldData(R4, (0, 1), graph, f2))
    lifted_sub = SubmanifoldData(R4, (0, 1), graph, lifted(Chart(("x1", "x2")), f2))
    want = pullback_dirac(lifted(R4, frame), lifted_sub)
    assert got.frame.sections == want.frame.sections
    assert got.involutivity == want.involutivity
