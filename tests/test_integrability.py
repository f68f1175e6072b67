import time

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo.scalars import GaussRat, IUNIT, ONE, ZERO
from gcgeo.forms import MixedForm, map_from_two_form, two_form_from_map
from gcgeo.clifford import GenVector
from gcgeo.charts import Chart
from gcgeo.fields import (
    ClosedThreeForm,
    DiracFrame,
    courant_bracket,
    d,
    involutivity_tensor,
    is_involutive,
    lie_derivative_form,
    schouten,
)
from gcgeo.gcs import (
    eigenbundle,
    gc_type,
    j_complex,
    j_symplectic,
    poisson_of,
    standard_complex_endo,
    standard_symplectic_map,
    validate_gc,
)
from gcgeo.integrability import (
    ansatz_polys,
    ansatz_system,
    check_spinor_integrability,
    deform_by_bivector,
    deform_graph_pointwise,
    hamiltonian_section,
    holomorphic_bivector,
    is_symmetry,
    modular_vector_field,
    nijenhuis_field,
    nijenhuis_vanishes,
)
from gcgeo.randgen import Rng
from gcgeo import linalg

from test_gcs import GRID, grid_structure


C2 = Chart.complex_plane(2)
R4 = Chart.real("x1", "x2", "x3", "x4")
R2 = Chart.real("x", "y")


def type_jump_spinor():
    return MixedForm(4, {0: C2.z(0)}) + C2.dz(0).wedge(C2.dz(1))


def nonclosed_invertible_omega() -> MixedForm:
    return MixedForm(4, {0b0011: ONE, 0b1100: ONE, 0b0101: R4.var("x2")})


def closed_on_samples_spinor() -> MixedForm:
    """e^{i omega}, omega = dx1^dx2 + dx3^dx4 + g dx1^dx3, g = x2^2 (x2 - 1)^2.

    d omega = dg ^ dx1 ^ dx3 vanishes where x2 is 0, 1/2 or 1, so on every
    default sample, but not at x2 = 2.
    """
    x2 = R4.var("x2")
    g = x2 * x2 * (x2 - R4.one()) * (x2 - R4.one())
    om = MixedForm(4, {0b0011: R4.one(), 0b1100: R4.one(), 0b0101: g})
    return om.scale(IUNIT).exp_wedge()


def nonclosed_omega_structure():
    om = nonclosed_invertible_omega()
    omap = map_from_two_form(om)
    x2 = R4.var("x2")
    oinv = [
        [ZERO, ONE, ZERO, ZERO],
        [-ONE, ZERO, ZERO, -x2],
        [ZERO, ZERO, ZERO, ONE],
        [ZERO, x2, -ONE, ZERO],
    ]
    assert linalg.mat_eq(linalg.mat_mul(omap, oinv), linalg.identity(4))
    zero = linalg.zeros(4, 4)
    minus_oinv = [[-x for x in row] for row in oinv]
    return validate_gc(linalg.from_blocks(zero, minus_oinv, omap, zero))


class TestWitnessSolver:
    def test_type_jump_passes_with_canonical_witness(self):
        rho = type_jump_spinor()
        neg_dz2 = GenVector(
            4, [-c for c in C2.del_z(1).vec], [C2.zero()] * 4
        )
        rep = check_spinor_integrability(C2, rho, witness=neg_dz2)
        assert rep.verdict == "pass"
        # solver route: some polynomial witness with identically zero residual
        rep2 = check_spinor_integrability(C2, rho)
        assert rep2.verdict == "pass"
        residual = d(C2, rho) - rep2.witness.act(rho)
        assert not residual

    def test_constant_symplectic_zero_witness(self):
        w = two_form_from_map(standard_symplectic_map(2))
        phi = w.scale(IUNIT).exp_wedge()
        rep = check_spinor_integrability(R4, phi)
        assert rep.verdict == "pass"
        assert rep.witness.is_zero()
        assert rep.degree_bound == 0

    def test_nonclosed_symplectic_fails(self):
        om = MixedForm(4, {0b0011: R4.var("x3"), 0b1100: R4.one()})
        phi = om.scale(IUNIT).exp_wedge()
        rep = check_spinor_integrability(R4, phi)
        assert rep.verdict == "fail"
        # the default bound: deg phi + deg H + 1 = 1 + 0 + 1
        assert rep.degree_bound == 2
        assert rep.counterexample["point"] == {n: "0" for n in R4.names}

    def test_supplied_wrong_witness_fails(self):
        rho = type_jump_spinor()
        rep = check_spinor_integrability(C2, rho, witness=GenVector.basis_vector(C2.dim, 0))
        assert rep.verdict == "fail"

    def test_degree_bound_exhaustion_reported(self):
        # an integrable structure whose minimal witness has degree 1: with
        # bound 0 the solver must say inconclusive, not fail
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0) * C2.z(0)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        rho = res.spinor
        rep0 = check_spinor_integrability(C2, rho, degree_bound=0)
        assert rep0.verdict == "inconclusive"
        assert rep0.degree_bound == 0
        rep1 = check_spinor_integrability(C2, rho)
        assert rep1.verdict == "pass"
        assert rep1.degree_bound == 1
        assert rep1.detail == "witness solved with degree bound 1"

    def test_twisted_witness(self):
        # d_H e^{iw} = H ^ e^{iw} for the constant symplectic w, and at the
        # origin H ^ e^{iw} is not (X + xi) . e^{iw} for any X + xi
        w = two_form_from_map(standard_symplectic_map(2))
        phi = w.scale(IUNIT).exp_wedge()
        h = ClosedThreeForm(R4, MixedForm(4, {0b0111: R4.one()}))
        rep = check_spinor_integrability(R4, phi, h)
        assert rep.verdict == "fail"
        assert rep.degree_bound == 1
        assert rep.counterexample["point"] == {n: "0" for n in R4.names}

    @pytest.mark.parametrize("seed", range(6))
    def test_smallest_degree_bound_reported(self, seed):
        # phi = dz1^dz2 + f, f holomorphic of degree k: X = (df/dz2) del_z1 -
        # (df/dz1) del_z2 has degree k - 1, and no witness has lower degree
        rng = Rng(seed)
        k = 1 + seed % 3
        f = C2.zero()
        for a in range(k + 1):
            for b in range(k + 1 - a):
                c = rng.gauss()
                if a + b == k and not c:
                    c = ONE
                f = f + C2.z(0) ** a * C2.z(1) ** b * c
        phi = C2.dz(0).wedge(C2.dz(1)) + MixedForm(4, {0: f})
        rep = check_spinor_integrability(C2, phi)
        assert rep.verdict == "pass"
        assert rep.degree_bound == k - 1
        assert rep.detail == f"witness solved with degree bound {k - 1}"
        assert not d(C2, phi) - rep.witness.act(phi)
        if k > 1:
            below = check_spinor_integrability(C2, phi, degree_bound=k - 2)
            assert below.verdict == "inconclusive"
            assert below.degree_bound == k - 2

    def test_obstruction_off_the_samples_is_inconclusive(self):
        phi = closed_on_samples_spinor()
        rep = check_spinor_integrability(R4, phi)
        assert rep.verdict == "inconclusive"
        assert rep.degree_bound == 5
        rep = check_spinor_integrability(R4, phi, samples=[R4.point(0, 2, 0, 0)])
        assert rep.verdict == "fail"
        assert rep.counterexample["point"] == {"x1": "0", "x2": "2", "x3": "0", "x4": "0"}

    def test_size_cap_stops_the_deepening(self, monkeypatch):
        from gcgeo import integrability

        phi = closed_on_samples_spinor()
        # bound 1 has up to 103 x 40 rows x unknowns, bound 2 303 x 120
        monkeypatch.setattr(integrability, "ANSATZ_CAP", 103 * 40)
        rep = check_spinor_integrability(R4, phi)
        assert rep.verdict == "inconclusive"
        assert rep.degree_bound == 2
        assert rep.detail == (
            "the ansatz at degree bound 2 has up to 303 x 120 rows x unknowns, above "
            "the cap 4120; no witness of lower degree and no pointwise obstruction found"
        )


def lane_cases():
    """Seeded spinors on R^4 (with and without a twist) and C^2, with their H."""
    out = []
    for seed in range(4):
        rng = Rng(seed)
        phi = rng.poly_two_form(R4, degree=1 + seed % 2).exp_wedge()
        h = ClosedThreeForm(R4, MixedForm(4, {0b0111: R4.var("x2") + GaussRat(seed, 3)}))
        out += [(R4, phi, None), (R4, phi, h)]
        out.append((C2, rng.poly_two_form(C2, degree=1).scale(IUNIT).exp_wedge(), None))
        f = sum((C2.z(0) ** a * C2.z(1) * rng.gauss(2, True) for a in range(3)), C2.zero())
        out.append((C2, C2.dz(0).wedge(C2.dz(1)) + MixedForm(4, {0: f + C2.z(0)}), None))
    return out


class TestIntegerLane:
    """The witness's systems go to the elimination as gaussian-integer rows."""

    def test_no_scalar_rows_before_the_witness_check(self, monkeypatch):
        def refuse(name):
            def call(*_, **__):
                raise AssertionError(f"the witness called {name}")
            return call

        events = []
        solve, act = linalg.integer_solve, GenVector.act

        def logged_solve(rows, ncols):
            events.append("solve")
            return solve(rows, ncols)

        def logged_act(self, phi):
            events.append("act")
            return act(self, phi)

        monkeypatch.setattr(linalg, "_row", refuse("linalg._row"))
        monkeypatch.setattr(linalg, "integer_solve", logged_solve)
        monkeypatch.setattr(GenVector, "act", logged_act)
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0) * C2.z(0)})
        rho = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta).spinor
        rep = check_spinor_integrability(C2, rho)
        assert rep.verdict == "pass" and rep.degree_bound == 1
        # six samples and bounds 0 and 1, then the one check of the witness
        assert events == ["solve"] * 8 + ["act"]

    def test_sample_rows_match_the_action_columns(self):
        from gcgeo.fields import d_twisted
        from gcgeo.integrability import _basis_frame, _default_samples, _sample_rows
        from test_adapted_frame import blade_rows

        seen = set()
        for chart, phi, h in lane_cases():
            m = chart.dim
            frame = _basis_frame(m)
            target = d_twisted(chart, phi, h)
            for p in _default_samples(chart):
                phi_p, target_p = phi.eval_at(p), target.eval_at(p)
                if not phi_p:
                    continue
                # reference: the columns u . phi_p of the frame, as GaussRat rows
                want = linalg.solve(
                    *blade_rows([u.act(phi_p) for u in frame], target_p), 2 * m
                )
                got = linalg.integer_solve(_sample_rows(phi_p, target_p), 2 * m)
                assert got == want
                seen.add(got is None)
        assert seen == {True, False}

    def test_frame_slots_are_the_frame_action(self):
        from gcgeo.integrability import _basis_frame, _frame_slots

        constant = two_form_from_map(standard_symplectic_map(2)).scale(IUNIT).exp_wedge()
        for chart, phi, _ in lane_cases() + [(R4, constant, None)]:
            want = [u.act(phi).terms for u in _basis_frame(chart.dim)]
            got = _frame_slots(phi)
            assert got == want
            assert [list(s) for s in got] == [list(s) for s in want]


class TestWitnessDimensionSweep:
    """Free witness solves that once built an ansatz far too large to solve.

    Each time bound is at least 20 times the time measured on a 2-core
    machine (0.01 s and 0.4 s).
    """

    def test_pointwise_obstruction_at_dimension_8(self):
        # the default bound 5 meant 484,195 x 20,592 rows x unknowns
        chart = Chart.real(*(f"x{i + 1}" for i in range(8)))
        phi = Rng(5).poly_two_form(chart, degree=1).exp_wedge()
        t0 = time.perf_counter()
        rep = check_spinor_integrability(chart, phi)
        assert time.perf_counter() - t0 < 1.0
        assert rep.verdict == "fail"
        assert rep.degree_bound == 5
        assert rep.counterexample["point"] == {n: "0" for n in chart.names}

    def test_constant_witness_at_complex_dimension_6(self):
        # the default bound 4 took 74 s; a constant witness exists
        c6 = Chart.complex_plane(6)
        beta = holomorphic_bivector(c6, {(k, k + 1): c6.z(k) for k in (0, 2, 4)})
        res = deform_by_bivector(c6, j_complex(standard_complex_endo(6)), beta)
        t0 = time.perf_counter()
        rep = check_spinor_integrability(c6, res.spinor)
        assert time.perf_counter() - t0 < 12.0
        assert rep.verdict == "pass"
        assert rep.degree_bound == 0
        assert not d(c6, res.spinor) - rep.witness.act(res.spinor)


class TestAnsatzSystem:
    def test_hand_checked_system(self):
        # u . (x, 2) over monomials {1, x, y}: columns run slot-major, the
        # GaussRat 2 is read as one constant term, and zero entries vanish
        x, y = R2.coord(0), R2.coord(1)
        two = GaussRat(2)
        slots = [{"a": x}, {"b": two, "a": ZERO}]
        target = {"a": GaussRat(3) * x * y, "b": GaussRat(4) * y}
        rows, unknowns = ansatz_system(R2, slots, 1, target)
        monos = [(0, 0), (1, 0), (0, 1)]
        assert unknowns == [(s, e) for s in range(2) for e in monos]
        # gaussian integers over L = 1, the target at the right-hand column 6
        assert rows == [
            {0: (1, 0)}, {1: (1, 0)}, {2: (1, 0), 6: (3, 0)},
            {3: (2, 0)}, {4: (2, 0)}, {5: (2, 0), 6: (4, 0)},
        ]
        sol = linalg.integer_solve(rows, len(unknowns))
        assert ansatz_polys(R2, sol, unknowns, 2) == [GaussRat(3) * y, two * y]

    def test_target_only_rows(self):
        rows, _ = ansatz_system(R2, [{0: R2.coord(0)}], 0, {1: R2.one()})
        assert rows == [{0: (1, 0)}, {1: (1, 0)}]
        assert linalg.integer_solve(rows, 1) is None


class TestNijenhuis:
    def test_constant_symplectic_vanishes(self):
        s = j_symplectic(standard_symplectic_map(2))
        comps = nijenhuis_field(R4, s, None)
        assert nijenhuis_vanishes(comps)

    def test_deformed_structure_vanishes(self):
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        comps = nijenhuis_field(C2, res.structure, None)
        assert nijenhuis_vanishes(comps)

    def test_nonintegrable_omega_detected(self):
        # omega = dx1^dx2 + dx3^dx4 + x2 dx1^dx3 has a constant pfaffian, so
        # J_omega is a polynomial almost structure, and d omega != 0
        om = nonclosed_invertible_omega()
        s = nonclosed_omega_structure()
        assert d(R4, om)
        comps = nijenhuis_field(R4, s, None)
        assert not nijenhuis_vanishes(comps)


class TestThreeWayAgreement:
    def library(self):
        out = []
        # constant symplectic: integrable
        s0 = j_symplectic(standard_symplectic_map(2))
        L0 = eigenbundle(s0)
        fr0 = DiracFrame(R4, L0.basis)
        phi0 = two_form_from_map(standard_symplectic_map(2)).scale(IUNIT).exp_wedge()
        out.append((R4, s0, fr0, phi0, True))
        # deformed complex structure: integrable, type jumping
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        out.append((C2, res.structure, res.frame, res.spinor, True))
        # non-integrable almost structure from a non-closed invertible omega
        om = nonclosed_invertible_omega()
        sbad = nonclosed_omega_structure()
        m = 4
        secs = []
        for i in range(m):
            unit = [R4.one() if t == i else R4.zero() for t in range(m)]
            contr = om.contract(unit).scale(-IUNIT)
            cov = [contr.coeff(1 << t) for t in range(m)]
            secs.append(GenVector(m, unit, cov))
        frbad = DiracFrame(R4, tuple(secs))
        phibad = om.scale(IUNIT).exp_wedge()
        out.append((R4, sbad, frbad, phibad, False))
        return out

    def test_agreement(self):
        for chart, s, frame, phi, expect in self.library():
            nij = nijenhuis_vanishes(nijenhuis_field(chart, s, None))
            inv = is_involutive(frame, None)
            wit = check_spinor_integrability(chart, phi).verdict == "pass"
            assert nij == inv == wit == expect


class TestCircleFamily:
    def test_deformed_structure_circle(self):
        # D_t = (a + b J)(T*) stays involutive for the deformed structure field
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        jmat = res.structure.matrix()
        m = 4
        for (a, b) in [(1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(3, 5))]:
            a, b = GaussRat(a), GaussRat(b)
            secs = []
            for i in range(m):
                xi = GenVector.basis_covector(C2.dim, i)
                jxi = GenVector.from_coords(linalg.mat_vec(jmat, xi.coords()))
                secs.append(xi.scale(C2.const(a)) + jxi.scale(C2.const(b)))
            frame = DiracFrame(C2, tuple(secs))
            assert is_involutive(frame, None), (a, b)

    def test_interpolation_family_involutive(self):
        from gcgeo.gcs import hyperkahler_interpolation

        for (a, b) in [(0, 1), (Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(3, 5)), (1, 0)]:
            s = hyperkahler_interpolation(GaussRat(a), GaussRat(b))
            L = eigenbundle(s)
            frame = DiracFrame(R4, L.basis)
            assert is_involutive(frame, None)


class TestDeformation:
    def test_spec_spinor(self):
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        assert res.spinor == type_jump_spinor()

    def test_zero_deformation_is_identity(self):
        base = j_complex(standard_complex_endo(2))
        res = deform_by_bivector(C2, base, MixedForm.zero(4, "mv"))
        assert linalg.mat_eq(res.structure.matrix(), base.matrix())

    def test_block_triangular_and_poisson(self):
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0) * C2.z(1)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        j = res.structure.matrix()
        m = 4
        # lower-left block vanishes: the deformation stays upper triangular
        for i in range(m):
            for k in range(m):
                assert not j[m + i][k]
        pmap, pmv = poisson_of(res.structure)
        assert not schouten(C2, pmv, pmv)

    def test_cubic_type_jump(self):
        f = C2.holo({(3, 0): GaussRat(1)})  # z1^3
        beta = holomorphic_bivector(C2, {(0, 1): f})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        on_curve = C2.point(0, 0, 1, 0)
        off_curve = C2.point(1, 0, 0, 0)
        assert res.spinor.eval_at(on_curve).min_degree() == 2
        assert res.spinor.eval_at(off_curve).min_degree() == 0
        assert gc_type(res.structure.eval_at(on_curve)) == 2
        assert gc_type(res.structure.eval_at(off_curve)) == 0

    def test_frame_matches_eigenbundle_pointwise(self):
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        p = C2.point(1, 0, 2, 0)
        from gcgeo.isotropics import canonical_form

        frame_pt = canonical_form(
            [u.eval_at(p) for u in res.frame.sections], 4
        )
        eig = eigenbundle(res.structure.eval_at(p))
        assert frame_pt.equals(eig)

    def test_graph_deformation_pointwise(self):
        s = j_complex(standard_complex_endo(2))
        eps = linalg.zeros(4, 4)
        eps[2][3] = GaussRat(Fraction(1, 2))
        eps[3][2] = -GaussRat(Fraction(1, 2))
        s2 = deform_graph_pointwise(s, eps)
        assert gc_type(s2) in (0, 2)
        # zero deformation is the identity
        s3 = deform_graph_pointwise(s, linalg.zeros(4, 4))
        assert linalg.mat_eq(s3.matrix(), s.matrix())

    def test_graph_deformation_singular_detected(self):
        s = j_complex(standard_complex_endo(1))
        # eps = 1 on the (del_zbar-like, dz-like) slot makes the deformed
        # frame vector real, so the graph meets its conjugate
        eps = linalg.zeros(2, 2)
        eps[0][1] = GaussRat(1)
        eps[1][0] = GaussRat(-1)
        with pytest.raises(ValueError, match="singular|conjugate"):
            deform_graph_pointwise(s, eps)


class TestModular:
    def test_paper_example_and_uniqueness(self):
        x = R2.var("x")
        beta = MixedForm(2, {0b11: x}, "mv")
        vol = MixedForm(2, {0b11: R2.one()})
        xv = modular_vector_field(R2, beta, vol)
        assert xv.vec[0] == R2.zero() and xv.vec[1] == -R2.one()

    def test_independent_bruteforce_solve(self):
        # oracle: write X = (a + b x + c y) dx-slot + ... and match coefficients
        # by sampling the identity at lattice points
        x = R2.var("x")
        beta = MixedForm(2, {0b11: x}, "mv")
        vol = MixedForm(2, {0b11: R2.one()})
        phi = vol + MixedForm(2, {0: x})
        dphi = d(R2, phi)
        monos = [(0, 0), (1, 0), (0, 1)]
        pts = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (-1, 1), (2, 0), (0, 2)]
        rows, rhs = [], []
        for (px, py) in pts:
            p = R2.point(px, py)
            phi_p = phi.eval_at(p)
            dphi_p = dphi.eval_at(p)
            for mask in range(4):
                row = []
                for slot in range(2):
                    base = GenVector.basis_vector(2, slot)
                    act = base.act(phi_p)
                    for (ex, ey) in monos:
                        val = GaussRat(px) ** ex * GaussRat(py) ** ey
                        row.append(val * act.coeff(mask))
                rows.append(row)
                rhs.append(dphi_p.coeff(mask))
        sol = linalg.solve(rows, rhs)
        assert sol is not None
        xv = modular_vector_field(R2, beta, vol)
        for (px, py) in pts:
            p = R2.point(px, py)
            for slot in range(2):
                oracle_val = sum(
                    (
                        sol[slot * 3 + t] * GaussRat(px) ** ex * GaussRat(py) ** ey
                        for t, (ex, ey) in enumerate(monos)
                    ),
                    ZERO,
                )
                assert xv.vec[slot].eval(p) == oracle_val

    def test_rescaling_law(self):
        rng = Rng(31)
        x = R2.var("x")
        beta = MixedForm(2, {0b11: x}, "mv")
        vol = MixedForm(2, {0b11: R2.one()})
        base = modular_vector_field(R2, beta, vol)
        for _ in range(10):
            f = rng.poly(R2, 2, 3)
            shifted = modular_vector_field(R2, beta, vol, log_factor=f)
            br = schouten(R2, beta, MixedForm(2, {0: f}, "mv"))
            for i in range(2):
                assert shifted.vec[i] == base.vec[i] + br.coeff(1 << i)

    def test_gaussrat_volume(self):
        # the volume coefficient stays a GaussRat: the divergence is divided
        # by the constant exactly
        beta = MixedForm(2, {0b11: R2.var("x")}, "mv")
        xv = modular_vector_field(R2, beta, MixedForm.top(2, ONE))
        assert repr(xv) == "(-1)*e_2"
        assert modular_vector_field(R2, beta, MixedForm.top(2, GaussRat(-3))) == xv

    def test_constant_bivector_trivial(self):
        beta = MixedForm(2, {0b11: R2.one()}, "mv")
        vol = MixedForm(2, {0b11: R2.one()})
        assert modular_vector_field(R2, beta, vol).is_zero()

    def test_non_poisson_rejected(self):
        ch = Chart.real("x", "y", "z")
        bad = MixedForm(
            3, {0b011: ch.var("z"), 0b110: ch.var("y")}, "mv"
        )
        vol = MixedForm.top(3, ch.one())
        with pytest.raises(ValueError, match="Poisson"):
            modular_vector_field(ch, bad, vol)

    def test_zero_volume_rejected(self):
        beta = MixedForm(2, {0b11: R2.var("x")}, "mv")
        with pytest.raises(ValueError, match="volume form is zero"):
            modular_vector_field(R2, beta, MixedForm.zero(2))

    def test_divergence_against_sympy(self):
        # oracle: X^j = -(1/g) sum_i d_i(g beta^{ij}) - sum_i beta^{ij} d_i f;
        # every bivector on R^2 and every c (x d_yz + y d_zx + z d_xy) on R^3
        # is Poisson
        sp = pytest.importorskip("sympy")
        rng = Rng(11)
        outcomes = set()
        for k in range(40):
            ch = R2 if k % 2 == 0 else Chart.real("x", "y", "z")
            m = ch.dim
            syms = sp.symbols(ch.names)
            to_sp = lambda p: sp.Add(*[
                (sp.Rational(c.a, c.q) + sp.I * sp.Rational(c.b, c.q))
                * sp.Mul(*[s**e for s, e in zip(syms, es)])
                for es, c in p.terms.items()
            ])
            c = rng.poly(ch, 2, 3, complex_ok=k % 5 == 0)
            g = ch.one() if k % 4 == 0 else rng.poly(ch, 1, 2) or ch.one()
            if k % 4 == 1:
                c = c * g
            if m == 2:
                entries = {(0, 1): c}
            else:
                x, y, z = (ch.coord(i) for i in range(3))
                entries = {(1, 2): c * x, (0, 2): -(c * y), (0, 1): c * z}
            beta = MixedForm(m, {(1 << i) | (1 << j): b for (i, j), b in entries.items()}, "mv")
            f = rng.poly(ch, 2, 2) if k % 3 == 0 else ch.zero()
            bmat = sp.zeros(m, m)
            for (i, j), b in entries.items():
                bmat[i, j], bmat[j, i] = to_sp(b), -to_sp(b)
            gs, fs = to_sp(g), to_sp(f)
            want = [
                sp.cancel(
                    -sum(sp.diff(gs * bmat[i, j], syms[i]) for i in range(m)) / gs
                    - sum(bmat[i, j] * sp.diff(fs, syms[i]) for i in range(m))
                )
                for j in range(m)
            ]
            polynomial = all(sp.fraction(w)[1].free_symbols == set() for w in want)
            outcomes.add(polynomial)
            vol = MixedForm.top(m, g)
            if not polynomial:
                with pytest.raises(ValueError, match="no polynomial modular field up to degree"):
                    modular_vector_field(ch, beta, vol, log_factor=f)
                continue
            xv = modular_vector_field(ch, beta, vol, log_factor=f)
            assert all(sp.expand(to_sp(a) - w) == 0 for a, w in zip(xv.vec, want))
        assert outcomes == {True, False}

    def test_non_dividing_volume(self):
        # beta = x d_x ^ d_y, g = y + 2: X^x = x / (y + 2) is not polynomial
        beta = MixedForm(2, {0b11: R2.var("x")}, "mv")
        vol = MixedForm.top(2, R2.var("y") + 2)
        for bound in (None, 5):
            with pytest.raises(ValueError, match="no polynomial modular field up to degree"):
                modular_vector_field(R2, beta, vol, degree_bound=bound)

    def test_lie_poisson_sum_at_dimension_12(self):
        # four copies of the so(3)* bracket: unimodular, so X = 0
        ch = Chart.real(*[f"x{i}" for i in range(12)])
        terms = {}
        for b in range(0, 12, 3):
            x, y, z = (ch.coord(b + k) for k in range(3))
            terms[0b110 << b], terms[0b101 << b], terms[0b011 << b] = x, -y, z
        beta = MixedForm(12, terms, "mv")
        t0 = time.perf_counter()
        xv = modular_vector_field(ch, beta, MixedForm.top(12, ch.one()))
        assert time.perf_counter() - t0 < 5.0
        assert xv.is_zero()


class TestHamiltonian:
    def test_symplectic_formula(self):
        # Df = d(Re f) + w^{-1} d(Im f)
        s = j_symplectic(standard_symplectic_map(2))
        f_re = R4.var("x1") * R4.var("x2")
        f_im = R4.var("x3")
        df = hamiltonian_section(R4, s, f_re, f_im)
        winv = linalg.inverse(standard_symplectic_map(2))
        d_im = [f_im.diff(n) for n in R4.names]
        expected_vec = linalg.mat_vec(winv, d_im)
        assert list(df.vec) == list(expected_vec)
        assert list(df.covec) == [f_re.diff(n) for n in R4.names]

    def test_complex_formula(self):
        # Df = dbar f + del conj(f); for holomorphic f both terms vanish
        s = j_complex(standard_complex_endo(2))
        f_h = C2.z(0) * C2.z(0)
        fh_re = (f_h + f_h.conj()) * GaussRat(Fraction(1, 2))
        fh_im = (f_h - f_h.conj()) * GaussRat(0, Fraction(-1, 2))
        assert hamiltonian_section(C2, s, fh_re, fh_im).is_zero()
        # mixed f = z1^2 + zbar2: Df = dzbar2 + dz2 = 2 dx3
        f = f_h + C2.zbar(1)
        f_re = (f + f.conj()) * GaussRat(Fraction(1, 2))
        f_im = (f - f.conj()) * GaussRat(0, Fraction(-1, 2))
        df = hamiltonian_section(C2, s, f_re, f_im)
        assert not any(df.vec)
        got = MixedForm(4, {1 << i: c for i, c in enumerate(df.covec) if c})
        assert got == C2.dzbar(1) + C2.dz(1)

    def test_real_constant_is_zero(self):
        s = j_symplectic(standard_symplectic_map(2))
        out = hamiltonian_section(R4, s, R4.const(GaussRat(5)), R4.zero())
        assert out.is_zero()

    def test_symmetry_verdict(self):
        s = j_symplectic(standard_symplectic_map(2))
        L = eigenbundle(s)
        frame = DiracFrame(R4, L.basis)
        f_re = R4.var("x1") * R4.var("x3")
        df = hamiltonian_section(R4, s, f_re, R4.zero())
        assert is_symmetry(R4, df, frame, None)
        # a non-symmetry: an arbitrary section with nonlinear coefficients
        bad = GenVector(
            4,
            [R4.var("x1") * R4.var("x1"), R4.zero(), R4.zero(), R4.zero()],
            [R4.zero()] * 4,
        )
        assert not is_symmetry(R4, bad, frame, None)


class TestGradedDecomposition:
    """d_H on the induced Z-grading: two adjacent components when integrable,
    with the obstruction landing exactly three steps away otherwise."""

    def _components(self, chart, s, phi, h=None):
        from gcgeo.gcs import grading_project
        from gcgeo.fields import d_twisted

        n = s.half_dim
        out = {}
        for k in range(-n, n + 1):
            psi = grading_project(s, phi, k)
            if not psi:
                continue
            dpsi = d_twisted(chart, psi, h)
            for j in range(-n, n + 1):
                comp = grading_project(s, dpsi, j)
                if comp:
                    out.setdefault(k, set()).add(j)
        return out

    def test_integrable_structures_decompose_adjacent(self):
        rng = Rng(41)
        s = j_symplectic(standard_symplectic_map(2))
        phi = MixedForm(4, {m: rng.poly(R4, 1, 2) for m in (0b0001, 0b0110, 0b1011)})
        spread = self._components(R4, s, phi)
        for k, js in spread.items():
            assert js <= {k - 1, k + 1}
        sj = j_complex(standard_complex_endo(2))
        phi2 = MixedForm(4, {m: rng.poly(C2, 1, 2, complex_ok=True) for m in (0b0011, 0b0101)})
        spread2 = self._components(C2, sj, phi2)
        for k, js in spread2.items():
            assert js <= {k - 1, k + 1}

    def test_nonintegrable_obstruction_three_steps(self):
        # complex structure on C^3 with a twist of holomorphic type (3,0)+(0,3):
        # the defect acts three grading steps away
        c3 = Chart.complex_plane(3)
        sj = j_complex(standard_complex_endo(3))
        h30 = c3.dz(0).wedge(c3.dz(1)).wedge(c3.dz(2))
        h_real = h30 + h30.conj()
        from gcgeo.fields import ClosedThreeForm

        h = ClosedThreeForm(c3, h_real)
        rng = Rng(43)
        phi = MixedForm(6, {0b000011: c3.one(), 0b000101: rng.poly(c3, 1, 2)})
        spread = self._components(c3, sj, phi, h)
        allowed = True
        saw_three = False
        for k, js in spread.items():
            for j in js:
                if abs(j - k) == 3:
                    saw_three = True
                elif abs(j - k) != 1:
                    allowed = False
        assert allowed and saw_three


class TestDeformedPoissonBlock:
    def test_p_block_matches_bivector_components(self):
        # beta = -(Q + i P)/4: the upper-right block is -4 Im beta, and the
        # real part pairs with it through the complex structure
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        res = deform_by_bivector(C2, j_complex(standard_complex_endo(2)), beta)
        pmap, _ = poisson_of(res.structure)
        im_beta = (beta - beta.conj()).scale(GaussRat(0, Fraction(-1, 2)))
        want = [
            [GaussRat(-4) * x for x in row] for row in map_from_two_form(im_beta)
        ]
        assert all(pmap[i][j] == want[i][j] for i in range(4) for j in range(4))
        re_beta = (beta + beta.conj()).scale(GaussRat(Fraction(1, 2)))
        qmap = [
            [GaussRat(-4) * x for x in row] for row in map_from_two_form(re_beta)
        ]
        jendo = standard_complex_endo(2)
        jt = linalg.transpose(jendo)
        pj = linalg.mat_mul(pmap, [[jt[i][k] for k in range(4)] for i in range(4)])
        assert linalg.mat_eq(qmap, pj)

    def test_beta_squares_to_zero_in_two_holomorphic_dims(self):
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        assert not schouten(C2, beta, beta)


class TestDeformationSurfacesAgree:
    def test_pointwise_graph_matches_field_deformation(self):
        # the pointwise graph deformation of the constant complex structure by
        # eps built from beta(p) agrees with the field-level conjugation
        from gcgeo.gcs import eigenbundle
        from gcgeo.isotropics import canonical_form

        base = j_complex(standard_complex_endo(2))
        beta = holomorphic_bivector(C2, {(0, 1): C2.z(0)})
        res = deform_by_bivector(C2, base, beta)
        for coords in ([1, 0, 0, 0], [2, 1, -1, 0], [0, 1, 1, 1]):
            p = C2.point(*coords)
            beta_p = beta.eval_at(p)
            basis = list(eigenbundle(base).basis)
            m = 4
            images = []
            for u in basis:
                contr = beta_p.contract(list(u.covec))
                images.append(
                    GenVector(m, [contr.coeff(1 << t) for t in range(m)], [ZERO] * m)
                )
            eps = [[images[i].pair(basis[j]) for j in range(m)] for i in range(m)]
            # antisymmetrize exactly (it already is, up to representation)
            for i in range(m):
                for j in range(m):
                    assert eps[i][j] == -eps[j][i]
            got = deform_graph_pointwise(base, eps)
            want = res.structure.eval_at(p)
            assert linalg.mat_eq(got.matrix(), want.matrix())


def graph_round_trip(s, eps):
    """(1+eps)L through the checked path: the graph spanned vector by vector,
    `canonical_form` (which checks isotropy), its spinor and the structure
    read back from it; None when the graph meets its conjugate."""
    from gcgeo.gcs import gc_from_pure_spinor
    from gcgeo.isotropics import canonical_form, pure_spinor_line

    m = s.dim
    basis = list(eigenbundle(s).basis)
    conj_basis = [v.conj() for v in basis]
    ginv = linalg.inverse([[cb.pair(b) for b in basis] for cb in conj_basis])
    # d_k = sum_t ginv[k][t] conj b_t has <d_k, b_j> = delta_kj
    dual = []
    for k in range(m):
        d_k = GenVector(m, [ZERO] * m, [ZERO] * m)
        for t in range(m):
            d_k = d_k + conj_basis[t].scale(ginv[k][t])
        dual.append(d_k)
    graph = []
    for j in range(m):
        w = basis[j]
        for k in range(m):
            w = w + dual[k].scale(eps[j][k])
        graph.append(w)
    new_l = canonical_form(graph, m)
    if new_l.conj_intersection_dim():
        return None
    return gc_from_pure_spinor(pure_spinor_line(new_l))


class TestTrustedDeformations:
    """The deformations are built without the checks; the checked paths agree."""

    @pytest.mark.parametrize("n,degree", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_bivector_deformation_passes_the_checks(self, n, degree):
        chart = Chart.complex_plane(n)
        rng = Rng(10 * n + degree)
        comps = {
            (a, b): rng.poly(chart, degree, 2, complex_ok=True)
            for a in range(n) for b in range(a + 1, n)
        }
        res = deform_by_bivector(chart, j_complex(standard_complex_endo(n)), holomorphic_bivector(chart, comps))
        assert validate_gc(res.structure.matrix()) == res.structure
        assert DiracFrame(chart, res.frame.sections) == res.frame

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GRID), st.booleans(), st.integers(0, 2**32 - 1))
    def test_graph_deformation_equals_the_spinor_round_trip(self, m_k, dense, seed):
        m, k = m_k
        s = grid_structure(m, k, dense)
        eps = Rng(seed).antisym_map(m, 1, complex_ok=True)
        want = graph_round_trip(s, eps)
        if want is None:
            with pytest.raises(ValueError, match="graph meets its conjugate"):
                deform_graph_pointwise(s, eps)
        else:
            assert deform_graph_pointwise(s, eps) == want

    def test_symplectic_graph_is_deformed_by_eps_not_minus_eps(self):
        # the Gram matrix <conj b_t, b_j> of a symplectic L is antisymmetric,
        # so the dual frame G^-1 conj b, transposed, is minus the true one
        s = j_symplectic(standard_symplectic_map(2))
        eps = linalg.zeros(4, 4)
        eps[0][1], eps[1][0] = GaussRat(1, 1), GaussRat(-1, -1)
        got = deform_graph_pointwise(s, eps)
        assert got == graph_round_trip(s, eps)
        assert got != graph_round_trip(s, [[-x for x in row] for row in eps])
