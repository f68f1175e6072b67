"""Acceptance criteria, one test per criterion, all exact.

Each test prints a single PASS line with its runtime; the stated budgets are
asserted directly.
"""

import json
import os
import time
from fractions import Fraction

import pytest

from gcgeo.scalars import GaussRat, Poly, IUNIT, ONE, ZERO
from gcgeo.forms import MixedForm, map_from_two_form, mukai_coeff, two_form_from_map
from gcgeo.clifford import BlockTransform, GenVector
from gcgeo.charts import Chart
from gcgeo.isotropics import (
    canonical_form,
    cotangent_space,
    graph_of_two_form,
    max_isotropic_from_spinor,
    pure_spinor_line,
    tangent_space,
    tensor_product,
    transform,
    transverse,
)
from gcgeo.gcs import (
    darboux_point,
    eigenbundle,
    gc_type,
    hyperkahler_interpolation,
    j_complex,
    j_symplectic,
    poisson_of,
    quaternion_triple,
    standard_complex_endo,
    standard_symplectic_map,
    validate_gc,
)
from gcgeo.fields import (
    ClosedThreeForm,
    DiracFrame,
    b_transform_section,
    d,
    is_involutive,
    schouten,
)
from gcgeo.integrability import (
    check_spinor_integrability,
    deform_by_bivector,
    holomorphic_bivector,
    modular_vector_field,
)
from gcgeo.algebroid import complex_pair, eps_from_bivector, maurer_cartan
from gcgeo.branes import SubmanifoldData, brane_check, pullback_dirac, whole_chart
from gcgeo.suites import run_axiom_suite, run_derived_bracket_suite
from gcgeo.randgen import Rng
from gcgeo.cli import main as cli_main
from gcgeo import linalg

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")
C2 = Chart.complex_plane(2)


def announce(name, budget, t0):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s / budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_type_jumping(capsys):
    t0 = time.perf_counter()
    code = cli_main(["type-map", os.path.join(CASES, "type_map_grid.json")])
    out = capsys.readouterr().out
    assert code == 0
    types = json.loads(out)["certificate"]["types"]
    assert len(types) == 9
    jumps = [e for e in types if e["point"][0] == "0" and e["point"][1] == "0"]
    flats = [e for e in types if not (e["point"][0] == "0" and e["point"][1] == "0")]
    assert len(jumps) == 3 and all(e["type"] == 2 for e in jumps)
    assert len(flats) == 6 and all(e["type"] == 0 for e in flats)
    code = cli_main(["check-integrable", os.path.join(CASES, "type_jump_c2.json")])
    out = capsys.readouterr().out
    assert code == 0
    body = json.loads(out)
    # the case file carries the witness -del_z2; it verifies identically
    assert body["certificate"]["witness"]["vec"] == ["0", "0", "-1/2", "1/2i"]
    # and the free solver also finds a witness with identically zero residual
    rho = MixedForm(4, {0: C2.z(0)}) + C2.dz(0).wedge(C2.dz(1))
    rep = check_spinor_integrability(C2, rho)
    assert rep.verdict == "pass"
    assert not (d(C2, rho) - rep.witness.act(rho))
    with capsys.disabled():
        announce("1 type-jumping", 1.0, t0)


def test_criterion_02_courant_axioms(capsys):
    t0 = time.perf_counter()
    res = run_axiom_suite(Chart.real("x", "y", "z"), cases=100, seed=2024, degree=2)
    assert res.passed, res.failures[:3]
    names = set(res.checked)
    assert {"C1", "C2", "C3", "C4", "C5", "jacobi", "anomaly"} <= names
    with capsys.disabled():
        announce("2 courant-axioms", 10.0, t0)


def test_criterion_03_derived_bracket(capsys):
    t0 = time.perf_counter()
    res = run_derived_bracket_suite(Chart.real("x", "y", "z"), cases=50, seed=303)
    assert res.passed, res.failures[:3]
    with capsys.disabled():
        announce("3 derived-bracket", 10.0, t0)


def test_criterion_04_mukai_invariants(capsys):
    t0 = time.perf_counter()
    rng = Rng(404)
    for m in (4, 6):
        for _ in range(50):
            t = BlockTransform(m, "B", rng.antisym_map(m, 1, complex_ok=True))
            s = rng.form(m, 3)
            u = rng.form(m, 3)
            assert mukai_coeff(t.spinor(s), t.spinor(u)) == mukai_coeff(s, u)
    # closed-form m = 4 even/odd formulas on all basis pairs
    m = 4
    top = (1 << m) - 1
    for a in range(1 << m):
        for b in range(1 << m):
            s = MixedForm(m, {a: ONE})
            u = MixedForm(m, {b: ONE})
            ka, kb = a.bit_count(), b.bit_count()
            if ka % 2 == 0 and kb % 2 == 0:
                want = (
                    s.degree_part(0).wedge(u.degree_part(4))
                    - s.degree_part(2).wedge(u.degree_part(2))
                    + s.degree_part(4).wedge(u.degree_part(0))
                ).coeff(top)
            elif ka % 2 and kb % 2:
                want = (
                    s.degree_part(1).wedge(u.degree_part(3))
                    - s.degree_part(3).wedge(u.degree_part(1))
                ).coeff(top)
            else:
                want = ZERO
            assert mukai_coeff(s, u) == want
    with capsys.disabled():
        announce("4 mukai-invariants", 5.0, t0)


def test_criterion_05_spinor_round_trip(capsys):
    t0 = time.perf_counter()
    for m in (2, 4, 6):
        rng = Rng(500 + m)
        prev = None
        for i in range(100):
            L = rng.isotropic(m, steps=2)
            phi = pure_spinor_line(L)
            assert max_isotropic_from_spinor(phi).equals(L)
            beta = BlockTransform(m, "beta", rng.antisym_map(m, 1, complex_ok=True))
            assert transform(L, beta).parity == L.parity
            if prev is not None:
                pr = mukai_coeff(pure_spinor_line(prev), phi)
                assert bool(pr) == transverse(prev, L)
            prev = L
    with capsys.disabled():
        announce("5 spinor-round-trip", 10.0, t0)


def test_criterion_06_tensor_identities(capsys):
    t0 = time.perf_counter()
    for m in (4, 6):
        rng = Rng(600 + m)
        for _ in range(20):
            L = rng.isotropic(m, steps=2)
            assert tensor_product(cotangent_space(m), L).equals(cotangent_space(m))
            b1 = rng.two_form(m, complex_ok=True)
            b2 = rng.two_form(m, complex_ok=True)
            assert tensor_product(graph_of_two_form(b1), graph_of_two_form(b2)).equals(
                graph_of_two_form(b1 + b2)
            )
            # idempotence of Delta + Ann(Delta) over a random coordinate Delta
            cut = rng.r.randint(0, m)
            basis = [GenVector.basis_vector(m, i) for i in range(cut)] + [
                GenVector.basis_covector(m, i) for i in range(cut, m)
            ]
            fol = canonical_form(basis, m)
            assert tensor_product(fol, fol).equals(fol)
            # Eq ptens: L^T x conj(L) = graph of iP/2 for a random structure
            s = rng.gc_structure(m, rng.r.choice(list(range(m // 2 + 1))))
            eig = eigenbundle(s)
            pmap, _ = poisson_of(s)
            half_i = GaussRat(0, Fraction(1, 2))
            graph = []
            for j in range(m):
                vec = [half_i * pmap[i][j] for i in range(m)]
                cov = [ONE if i == j else ZERO for i in range(m)]
                graph.append(GenVector(m, vec, cov))
            assert tensor_product(eig.flip(), eig.conj()).equals(
                canonical_form(graph, m)
            )
    with capsys.disabled():
        announce("6 tensor-identities", 5.0, t0)


def test_criterion_07_pointwise_darboux(capsys):
    t0 = time.perf_counter()
    for m in (4, 6, 8):
        rng = Rng(700 + m)
        for i in range(50):
            k = rng.r.randint(0, m // 2)
            s = rng.gc_structure(m, k, conjugations=2, kinds=("B", "gl"))
            data = darboux_point(s)
            assert data.k == k
            regen = (
                (data.btilde + data.omega0.scale(IUNIT))
                .exp_wedge()
                .wedge(data.omega_k)
            )
            assert regen.proportional_to(data.generator)
    with capsys.disabled():
        announce("7 pointwise-darboux", 30.0, t0)


def test_criterion_08_interpolation_family(capsys):
    t0 = time.perf_counter()
    i_m, j_m, _ = quaternion_triple()
    ji = j_complex(i_m).matrix()
    jw = j_symplectic(j_m).matrix()
    assert linalg.mat_eq(
        linalg.mat_mul(ji, jw), linalg.mat_scale(linalg.mat_mul(jw, ji), -ONE)
    )
    r4 = Chart.real("x1", "x2", "x3", "x4")
    for (a, b) in [(0, 1), (Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(3, 5)), (1, 0)]:
        s = hyperkahler_interpolation(GaussRat(a), GaussRat(b))
        eig = eigenbundle(s)
        frame = DiracFrame(r4, eig.basis)
        assert is_involutive(frame, None)
    with capsys.disabled():
        announce("8 interpolation-family", 5.0, t0)


def test_criterion_09_deformation(capsys):
    t0 = time.perf_counter()
    rng = Rng(909)
    pair = complex_pair(C2)
    base = j_complex(standard_complex_endo(2))
    omega = C2.dz(0).wedge(C2.dz(1))
    p_zero = C2.point(0, 0, 1, 0)  # z1 = 0, z2 = 1
    for i in range(10):
        f = C2.zero()
        while not f:
            coeffs = {
                e: rng.gauss(2)
                for e in [(3, 0), (2, 1), (1, 2), (0, 3), (2, 0), (0, 0), (1, 1)]
            }
            # shift so the cubic vanishes at the chosen sample point
            f = C2.holo(coeffs)
            f = f - C2.const(f.eval(p_zero))
        beta = holomorphic_bivector(C2, {(0, 1): f})
        res = deform_by_bivector(C2, base, beta)
        # maurer-cartan in Lambda^2 L* components matching the graph of beta
        rep = maurer_cartan(pair, eps_from_bivector(pair, beta))
        assert rep.verdict == "pass"
        # deformed spinor is Omega + f
        assert res.spinor == omega + MixedForm(4, {0: f})
        # types at samples: 2 exactly on the cubic, 0 off it
        assert res.spinor.eval_at(p_zero).min_degree() == 2
        assert gc_type(res.structure.eval_at(p_zero)) == 2
        off = None
        for cand in ([1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 0, 1], [2, 0, 1, 0]):
            p = C2.point(*cand)
            if f.eval(p):
                off = p
                break
        assert off is not None
        assert res.spinor.eval_at(off).min_degree() == 0
        assert gc_type(res.structure.eval_at(off)) == 0
        # [P, P] = 0 for the real Poisson block
        _, pmv = poisson_of(res.structure)
        assert not schouten(C2, pmv, pmv)
    with capsys.disabled():
        announce("9 deformation", 10.0, t0)


def test_criterion_10_modular_field(capsys):
    t0 = time.perf_counter()
    r2 = Chart.real("x", "y")
    x = r2.var("x")
    beta = MixedForm(2, {0b11: x}, "mv")
    vol = MixedForm(2, {0b11: r2.one()})
    xv = modular_vector_field(r2, beta, vol)
    # independent brute-force linear solve by sampling the defining identity
    phi = vol + MixedForm(2, {0: x})
    dphi = d(r2, phi)
    monos = [(0, 0), (1, 0), (0, 1)]
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (-1, 1), (2, 0), (0, 2)]
    rows, rhs = [], []
    for (px, py) in pts:
        p = r2.point(px, py)
        phi_p = phi.eval_at(p)
        dphi_p = dphi.eval_at(p)
        for mask in range(4):
            row = []
            for slot in range(2):
                act = GenVector.basis_vector(2, slot).act(phi_p)
                for (ex, ey) in monos:
                    row.append(GaussRat(px) ** ex * GaussRat(py) ** ey * act.coeff(mask))
            rows.append(row)
            rhs.append(dphi_p.coeff(mask))
    sol = linalg.solve(rows, rhs)
    assert sol is not None
    for (px, py) in pts:
        p = r2.point(px, py)
        for slot in range(2):
            oracle = sum(
                (
                    sol[slot * 3 + t] * GaussRat(px) ** ex * GaussRat(py) ** ey
                    for t, (ex, ey) in enumerate(monos)
                ),
                ZERO,
            )
            assert xv.vec[slot].eval(p) == oracle
    # rescaling law for 10 random polynomial log factors
    rng = Rng(1010)
    for _ in range(10):
        f = rng.poly(r2, 2, 3)
        shifted = modular_vector_field(r2, beta, vol, log_factor=f)
        br = schouten(r2, beta, MixedForm(2, {0: f}, "mv"))
        for i in range(2):
            assert shifted.vec[i] == xv.vec[i] + br.coeff(1 << i)
    with capsys.disabled():
        announce("10 modular-field", 5.0, t0)


def test_criterion_11_brane_suite(capsys):
    t0 = time.perf_counter()
    ch = Chart.real("x1", "x2", "p1", "p2")
    sn = ("x1", "x2")
    zero = Poly.zero(sn)
    omega_std = MixedForm(4, {(1 << 0) | (1 << 2): ONE, (1 << 1) | (1 << 3): ONE})
    s_symp = j_symplectic(map_from_two_form(omega_std))
    lag = SubmanifoldData(ch, (0, 1), {2: zero, 3: zero})
    rep = brane_check(s_symp, lag)
    assert rep.compatible and rep.lagrangian
    non_lag_names = ("x1", "p1")
    nz = Poly.zero(non_lag_names)
    non_lag = SubmanifoldData(ch, (0, 2), {1: nz, 3: nz})
    assert not brane_check(s_symp, non_lag).compatible
    chc = Chart.complex_plane(2)
    s_cx = j_complex(standard_complex_endo(2))
    f11 = MixedForm(4, {0b0011: ONE})
    f20 = MixedForm(4, {0b0101: ONE, 0b1010: -ONE})
    assert brane_check(s_cx, whole_chart(chc, f11)).compatible
    assert not brane_check(s_cx, whole_chart(chc, f20)).compatible
    omega_sf = MixedForm(4, {(1 << 0) | (1 << 3): ONE, (1 << 1) | (1 << 2): ONE})
    s_sf = j_symplectic(map_from_two_form(omega_sf))
    f_sf = MixedForm(4, {(1 << 0) | (1 << 2): ONE, (1 << 1) | (1 << 3): -ONE})
    rep_sf = brane_check(s_sf, whole_chart(ch, f_sf))
    assert rep_sf.compatible and rep_sf.space_filling_j_squared_ok
    jm = [[v.const_value() for v in row] for row in rep_sf.space_filling_j]
    oracle = [
        [-x for x in row]
        for row in linalg.mat_mul(
            linalg.inverse(map_from_two_form(omega_sf)), map_from_two_form(f_sf)
        )
    ]
    assert linalg.mat_eq(jm, oracle)
    # pullback of graph(B) matches graph(i*B)
    rng = Rng(1111)
    for _ in range(5):
        b_amb = rng.poly_two_form(ch, 1)
        frame = DiracFrame(
            ch,
            tuple(b_transform_section(ch, b_amb, GenVector.basis_vector(4, i)) for i in range(4)),
        )
        x1 = Poly.var(sn, "x1")
        sub = SubmanifoldData(ch, (0, 1), {2: x1 * x1, 3: zero})
        res = pullback_dirac(frame, sub)
        assert all(not v for v in res.involutivity.values())
        ib = sub.pull_form(b_amb)
        s_chart = sub.chart_s()
        want = [
            b_transform_section(s_chart, ib, GenVector.basis_vector(s_chart.dim, i)).coords()
            for i in range(2)
        ]
        got = [u.coords() for u in res.frame.sections]
        for pt in (s_chart.point(0, 0), s_chart.point(1, 1), s_chart.point(-1, 2)):
            gp = [[c.eval(pt) for c in row] for row in got]
            wp = [[c.eval(pt) for c in row] for row in want]
            assert linalg.span_equal(gp, wp)
    with capsys.disabled():
        announce("11 brane-suite", 5.0, t0)
