import json
import time

import pytest
from fractions import Fraction

from gcgeo.scalars import GaussRat, Poly, IUNIT, ONE, ZERO
from gcgeo.forms import MixedForm, map_from_two_form, two_form_from_map
from gcgeo.clifford import GenVector
from gcgeo.charts import Chart
from gcgeo.fields import (
    ClosedThreeForm,
    DiracFrame,
    b_transform_section,
    d,
    is_involutive,
)
from gcgeo.gcs import (
    j_complex,
    j_symplectic,
    standard_complex_endo,
    standard_symplectic_map,
    validate_gc,
)
from gcgeo.branes import (
    BraneReport,
    SubmanifoldData,
    brane_check,
    generalized_tangent,
    pullback_dirac,
    whole_chart,
)
from gcgeo.randgen import Rng
from gcgeo.cli import main
from gcgeo.jobio import matrix_json
from gcgeo import linalg

from test_integrability import R4, nonclosed_omega_structure


CH = Chart.real("x1", "x2", "p1", "p2")
SN = ("x1", "x2")


def plane(params, graphed, chart=CH, f2=None, h=None):
    s_names = tuple(chart.names[i] for i in params)
    zero = Poly.zero(s_names)
    graph = {j: zero for j in graphed}
    return SubmanifoldData(chart, tuple(params), graph, f2, h)


def sy_dxdp():
    # omega = dx1^dp1 + dx2^dp2 in coordinates (x1, x2, p1, p2)
    w = two_form_from_map(linalg.zeros(4, 4))
    form = MixedForm(4, {(1 << 0) | (1 << 2): ONE, (1 << 1) | (1 << 3): ONE})
    return j_symplectic(map_from_two_form(form))


class TestSubmanifoldData:
    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            plane((0, 1), (1, 3))

    def test_trivialization_certificate(self):
        # F with dF != i*H is rejected
        sub_names = ("x1", "x2")
        f2 = MixedForm(2, {0b11: Poly.var(sub_names, "x1")})
        # dF = dx1^(dx1^dx2)... = 0 here; pick F = x1 dx2 as 1-form? F must be
        # a 2-form: use an ambient H whose pullback is nonzero
        h = ClosedThreeForm(CH, MixedForm(4, {0b0111: CH.one()}))
        with pytest.raises(ValueError, match="dF"):
            SubmanifoldData(CH, (0, 1, 2), {3: Poly.zero(("x1", "x2", "p1"))}, None, h)

    def test_pull_form_on_graph(self):
        # S = {p1 = x1^2, p2 = 0}: pull back dp1 -> 2 x1 dx1
        s_names = SN
        x1 = Poly.var(s_names, "x1")
        sub = SubmanifoldData(CH, (0, 1), {2: x1 * x1, 3: Poly.zero(s_names)})
        pulled = sub.pull_form(MixedForm(4, {1 << 2: ONE}))
        assert pulled == MixedForm(2, {1 << 0: GaussRat(2) * x1})

    def test_tangent_and_conormal_annihilate(self):
        s_names = SN
        x1 = Poly.var(s_names, "x1")
        sub = SubmanifoldData(CH, (0, 1), {2: x1 * x1, 3: x1})
        for lift in sub.tangent_lifts():
            for con in sub.conormals():
                val = sum((a * b for a, b in zip(lift, con)), Poly.zero(s_names))
                assert not val


class TestGeneralizedTangent:
    def test_f_zero_gives_ts_plus_conormal(self):
        sub = plane((0, 1), (2, 3))
        tau = generalized_tangent(sub)
        assert len(tau.sections) == 4
        assert tau.sections[0].covec == (Poly.zero(SN),) * 4

    def test_defining_relation_with_f(self):
        # i* eta = i_X F for the tangent lifts
        s_names = SN
        f2 = MixedForm(2, {0b11: Poly.var(s_names, "x1")})
        sub = plane((0, 1), (2, 3), f2=f2)
        tau = generalized_tangent(sub)
        for a in range(2):
            u = tau.sections[a]
            eta = MixedForm(4, {1 << i: c for i, c in enumerate(u.covec) if c})
            pulled = sub.pull_form(eta)
            unit = [Poly.const(s_names, ONE) if b == a else Poly.zero(s_names) for b in range(2)]
            assert pulled == sub.f2.contract(unit)

    def test_whole_chart_with_closed_f_is_graph(self):
        f_amb = MixedForm(4, {0b0011: ONE})
        sub = whole_chart(CH, f_amb)
        tau = generalized_tangent(sub)
        for i, u in enumerate(tau.sections):
            want = b_transform_section(CH, f_amb, GenVector.basis_vector(CH.dim, i))
            assert (u - want).is_zero()


class TestPullback:
    def test_identity_pullback(self):
        sub = whole_chart(CH)
        secs = tuple(GenVector.basis_vector(CH.dim, i) for i in range(4))
        frame = DiracFrame(CH, secs)
        res = pullback_dirac(frame, sub)
        assert len(res.frame.sections) == 4
        assert all(not v for v in res.involutivity.values())

    def test_cotangent_pullback(self):
        sub = plane((0, 1), (2, 3))
        secs = tuple(GenVector.basis_covector(CH.dim, i) for i in range(4))
        frame = DiracFrame(CH, secs)
        res = pullback_dirac(frame, sub)
        # T*M pulls back to T*S
        rows = [[c for c in u.coords()] for u in res.frame.sections]
        s_chart = sub.chart_s()
        p = s_chart.point(0, 0)
        rows_p = [[x.eval(p) for x in row] for row in rows]
        want = [[ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]]
        assert linalg.span_equal(rows_p, want)

    def test_graph_pullback_is_pullback_graph(self):
        rng = Rng(3)
        for _ in range(5):
            b_amb = rng.poly_two_form(CH, 1)
            secs = tuple(
                b_transform_section(CH, b_amb, GenVector.basis_vector(CH.dim, i)) for i in range(4)
            )
            frame = DiracFrame(CH, secs)
            s_names = SN
            x1 = Poly.var(s_names, "x1")
            sub = SubmanifoldData(CH, (0, 1), {2: x1 * x1, 3: Poly.zero(s_names)})
            res = pullback_dirac(frame, sub)
            ib = sub.pull_form(b_amb)
            s_chart = sub.chart_s()
            want = tuple(
                b_transform_section(s_chart, ib, GenVector.basis_vector(s_chart.dim, i))
                for i in range(2)
            )
            rows_got = [u.coords() for u in res.frame.sections]
            rows_want = [u.coords() for u in want]
            for p in (s_chart.point(0, 0), s_chart.point(1, 1), s_chart.point(2, -1)):
                gp = [[c.eval(p) for c in row] for row in rows_got]
                wp = [[c.eval(p) for c in row] for row in rows_want]
                assert linalg.span_equal(gp, wp)

    def test_rank_jump_reported(self):
        # L whose intersection with K-perp jumps rank: vec part x1 d/dp1
        s_names = SN
        x1_amb = CH.var("x1")
        sec1 = GenVector(
            4,
            [CH.zero(), CH.zero(), x1_amb, CH.zero()],
            [CH.zero()] * 4,
        )
        # complete to a maximal isotropic: add dp-ish covectors and a tangent
        sec2 = GenVector.basis_vector(CH.dim, 0)
        sec3 = GenVector.basis_covector(CH.dim, 1)
        sec4 = GenVector.basis_covector(CH.dim, 3)
        frame = DiracFrame(CH, (sec1, sec2, sec3, sec4))
        sub = plane((0, 1), (2, 3))
        with pytest.raises(ValueError, match="rank"):
            pullback_dirac(frame, sub, samples=[sub.chart_s().point(0, 0), sub.chart_s().point(1, 0)])


def checked(structure, sub):
    """brane_check, and for a compatible brane its ell = ker(J - i) in tau x C.

    At each default sample, ell has m/2 vectors, each an i-eigenvector of J
    in the span of tau.
    """
    rep = brane_check(structure, sub)
    if rep.compatible:
        s_chart = sub.chart_s()
        m, ds = sub.ambient.dim, sub.dim_s
        jmat = sub.restrict_matrix(structure.matrix())
        tau = [u.coords() for u in generalized_tangent(sub).sections]
        points = [s_chart.point(*([0] * ds)), s_chart.point(*([1] * ds))]
        assert len(rep.ell_frame_samples) == len(points)
        for p, ell in zip(points, rep.ell_frame_samples):
            jp = linalg.eval_matrix(jmat, p)
            tau_p = linalg.eval_matrix(tau, p)
            assert len(ell) == m // 2
            for v in ell:
                assert linalg.mat_vec(jp, list(v)) == [IUNIT * x for x in v]
                assert linalg.span_contains(tau_p, list(v))
    return rep


class TestBraneCheck:
    def test_lagrangian_plane_passes(self):
        rep = checked(sy_dxdp(), plane((0, 1), (2, 3)))
        assert rep.compatible and rep.lagrangian and rep.coisotropic

    def test_non_lagrangian_plane_fails(self):
        # span(e1, e3) has omega(e1, e3) = 1
        rep = checked(sy_dxdp(), plane((0, 2), (1, 3)))
        assert not rep.compatible

    def test_lagrangian_graph_passes(self):
        # {p = df} for f = x1 x2: a lagrangian graph submanifold
        s_names = SN
        x1 = Poly.var(s_names, "x1")
        x2 = Poly.var(s_names, "x2")
        sub = SubmanifoldData(CH, (0, 1), {2: x2, 3: x1})
        rep = checked(sy_dxdp(), sub)
        assert rep.compatible and rep.lagrangian

    def test_complex_brane_f_types(self):
        chc = Chart.complex_plane(2)
        sj = j_complex(standard_complex_endo(2))
        f11 = MixedForm(4, {0b0011: ONE})
        f20 = MixedForm(4, {0b0101: ONE, 0b1010: -ONE})
        assert checked(sj, whole_chart(chc, f11)).compatible
        rep = checked(sj, whole_chart(chc, f20))
        assert not rep.compatible and rep.f_type_11 is False

    def test_complex_submanifold_stability(self):
        chc = Chart.complex_plane(2)
        sj = j_complex(standard_complex_endo(2))
        s_names = ("x1", "x2")
        zero = Poly.zero(s_names)
        holo = SubmanifoldData(chc, (0, 1), {2: zero, 3: zero})
        rep = checked(sj, holo)
        assert rep.compatible and rep.complex_stable
        x1 = Poly.var(s_names, "x1")
        x2 = Poly.var(s_names, "x2")
        anti = SubmanifoldData(chc, (0, 1), {2: x1, 3: -x2})
        rep2 = checked(sj, anti)
        assert not rep2.compatible and rep2.complex_stable is False

    def test_space_filling_example(self):
        ch = Chart.real("x1", "x2", "p1", "p2")
        omega_form = MixedForm(4, {(1 << 0) | (1 << 3): ONE, (1 << 1) | (1 << 2): ONE})
        s = j_symplectic(map_from_two_form(omega_form))
        f = MixedForm(4, {(1 << 0) | (1 << 2): ONE, (1 << 1) | (1 << 3): -ONE})
        rep = checked(s, whole_chart(ch, f))
        assert rep.compatible
        assert rep.space_filling_j_squared_ok
        assert rep.sigma_20
        # the matrix oracle: J = -omega^{-1} F squared equals -1
        wmap = map_from_two_form(omega_form)
        fmap = map_from_two_form(f)
        j = [[-x for x in row] for row in linalg.mat_mul(linalg.inverse(wmap), fmap)]
        j2 = linalg.mat_mul(j, j)
        assert linalg.mat_eq(j2, linalg.mat_scale(linalg.identity(4), -ONE))
        got = [[v.const_value() for v in row] for row in rep.space_filling_j]
        assert linalg.mat_eq(got, j)

    def test_coisotropy_invariant(self):
        # every compatible case in this file has P(N*S) inside TS at samples
        reps = [
            checked(sy_dxdp(), plane((0, 1), (2, 3))),
            checked(
                j_complex(standard_complex_endo(2)),
                plane((0, 1), (2, 3), chart=Chart.complex_plane(2)),
            ),
        ]
        for rep in reps:
            assert rep.compatible
            assert rep.coisotropic

    def test_splitting_covariance(self):
        # conjugating the ambient structure by exp(B) and shifting F by i*B
        # preserves the compatibility verdict
        rng = Rng(9)
        base = sy_dxdp()
        for _ in range(5):
            bmap = rng.antisym_map(4)
            from gcgeo.clifford import BlockTransform

            t = BlockTransform(4, "B", bmap)
            o = t.orth_matrix()
            j2 = linalg.mat_mul(o, linalg.mat_mul(base.matrix(), linalg.inverse(o)))
            s2 = validate_gc(j2)
            b_form = two_form_from_map(bmap)
            sub0 = plane((0, 1), (2, 3))
            pulled = sub0.pull_form(b_form)
            sub2 = SubmanifoldData(CH, (0, 1), sub0.graph, pulled)
            before = checked(base, sub0).compatible
            after = checked(s2, sub2).compatible
            assert before == after == True


def dense_space_filling(m, seed):
    """(omega, F) maps congruent by a dense GL to blocks e1^e4 + e2^e3 and
    e1^e3 - e2^e4, with F = 2 omega on a leftover plane: compatible iff 4 | m."""
    w0, f0 = linalg.zeros(m, m), linalg.zeros(m, m)

    def put(mat, i, j, c):
        mat[i][j], mat[j][i] = GaussRat(c), GaussRat(-c)

    for o in range(0, m - m % 4, 4):
        put(w0, o, o + 3, 1), put(w0, o + 1, o + 2, 1)
        put(f0, o, o + 2, 1), put(f0, o + 1, o + 3, -1)
    for o in range(m - m % 4, m, 2):
        put(w0, o, o + 1, 1), put(f0, o, o + 1, 2)
    g = Rng(seed).gl_matrix(m)
    gt = linalg.transpose(g)
    return tuple(linalg.mat_mul(gt, linalg.mat_mul(a, g)) for a in (w0, f0))


class TestSpaceFilling:
    # J_F = -omega^-1 F is read off the Poisson block of J, so a dense omega
    # costs no inversion: m = 12 takes 0.16 s (median of 5, 2-core machine)
    @pytest.mark.parametrize("m,seed", [(10, 9), (12, 22)], ids=["m10", "m12"])
    def test_dense_omega_in_bounded_time(self, m, seed):
        wmap, fmap = dense_space_filling(m, seed)
        assert all(wmap[i][j] for i in range(m) for j in range(m) if i != j)
        s = j_symplectic(wmap)
        chart = Chart.real(*(f"x{i + 1}" for i in range(m)))
        start = time.perf_counter()
        rep = brane_check(s, whole_chart(chart, two_form_from_map(fmap)))
        assert time.perf_counter() - start < 10.0
        want = linalg.mat_scale(linalg.mat_mul(linalg.inverse(wmap), fmap), -ONE)
        got = [[x.const_value() for x in row] for row in rep.space_filling_j]
        assert linalg.mat_eq(got, want)
        assert rep.compatible == rep.space_filling_j_squared_ok == (m % 4 == 0)

    def test_parameter_order(self):
        # the example brane with its parameters listed as (x2, x1, p1, p2):
        # F's basis follows that order, and so must J_F
        omega = MixedForm(4, {(1 << 0) | (1 << 3): ONE, (1 << 1) | (1 << 2): ONE})
        s = j_symplectic(map_from_two_form(omega))
        f = MixedForm(4, {(1 << 1) | (1 << 2): ONE, (1 << 0) | (1 << 3): -ONE})
        rep = checked(s, SubmanifoldData(CH, (1, 0, 2, 3), {}, f))
        assert rep.compatible and rep.space_filling_j_squared_ok and rep.sigma_20
        omega_s = map_from_two_form(MixedForm(4, {0b0101: ONE, 0b1010: ONE}))
        want = linalg.mat_mul(linalg.inverse(omega_s), map_from_two_form(f))
        got = [[-x.const_value() for x in row] for row in rep.space_filling_j]
        assert linalg.mat_eq(got, want)

    def test_polynomial_omega(self):
        # omega = e12 + e34 + x2 e13 has a polynomial inverse; the closed
        # F = x1 e12 + 2 e13 + e34 gives omega J_F = -F as polynomials
        s = nonclosed_omega_structure()
        f = MixedForm(4, {0b0011: R4.var("x1"), 0b0101: GaussRat(2), 0b1100: ONE})
        rep = brane_check(s, whole_chart(R4, f))
        lhs = linalg.mat_mul(s.blocks().b_map, [list(row) for row in rep.space_filling_j])
        rhs = linalg.mat_scale(map_from_two_form(f), -ONE)
        assert linalg.mat_eq(lhs, rhs)

    def test_cli_brane_check(self, tmp_path, capsys):
        omega = MixedForm(4, {(1 << 0) | (1 << 3): ONE, (1 << 1) | (1 << 2): ONE})
        doc = {
            "schema_version": 1,
            "command": "brane-check",
            "chart": {"vars": list(CH.names)},
            "matrix": matrix_json(j_symplectic(map_from_two_form(omega)).matrix()),
            "submanifold": {
                "params": [1, 2, 3, 4],
                "f": [{"coeff": "1", "basis": [1, 3]}, {"coeff": "-1", "basis": [2, 4]}],
            },
        }
        p = tmp_path / "space_filling.json"
        p.write_text(json.dumps(doc))
        code = main(["brane-check", str(p)])
        body = json.loads(capsys.readouterr().out)
        assert code == 0 and body["verdict"] == "pass"
        assert body["certificate"]["space_filling_j_squared_ok"] is True
        assert "space_filling_j" in body["certificate"]


# ---------------------------------------------------------------------------
# the pairwise reference: generalized_tangent and brane_check as index loops,
# pair by pair, differentiating the graph themselves
# ---------------------------------------------------------------------------

def ref_tangent_lifts(sub):
    s_chart = sub.chart_s()
    out = []
    for a, name in enumerate(s_chart.names):
        comps = [s_chart.zero()] * sub.ambient.dim
        comps[sub.param_indices[a]] = s_chart.one()
        for j, g in sub.graph.items():
            comps[j] = g.diff(name)
        out.append(comps)
    return out


def ref_conormals(sub):
    s_chart = sub.chart_s()
    out = []
    for j in sorted(sub.graph):
        comps = [s_chart.zero()] * sub.ambient.dim
        comps[j] = s_chart.one()
        for a, name in enumerate(s_chart.names):
            dg = sub.graph[j].diff(name)
            if dg:
                comps[sub.param_indices[a]] = -dg
        out.append(comps)
    return out


def ref_normal_residues(sub, vec_comps):
    s_chart = sub.chart_s()
    out = []
    for j in sorted(sub.graph):
        acc = vec_comps[j]
        for a, name in enumerate(s_chart.names):
            dg = sub.graph[j].diff(name)
            if dg:
                acc = acc - dg * vec_comps[sub.param_indices[a]]
        out.append(acc)
    return out


def ref_generalized_tangent(sub):
    s_chart = sub.chart_s()
    m, ds = sub.ambient.dim, sub.dim_s
    sections = []
    for a, lift in enumerate(ref_tangent_lifts(sub)):
        unit = [s_chart.one() if b == a else s_chart.zero() for b in range(ds)]
        ix_f = sub.f2.contract(unit)
        cov = [s_chart.zero()] * m
        for b in range(ds):
            c = ix_f.coeff(1 << b)
            if c:
                cov[sub.param_indices[b]] = c
        sections.append(GenVector(m, lift, cov))
    for conormal in ref_conormals(sub):
        sections.append(GenVector(m, [s_chart.zero()] * m, conormal))
    for u in sections:
        for v in sections:
            assert not u.pair(v)
    return sections


def ref_brane_check(structure, sub, samples=None):
    """Every BraneReport field, decided pair by pair and vector by vector."""
    s_chart = sub.chart_s()
    m, ds = sub.ambient.dim, sub.dim_s
    if samples is None:
        samples = [s_chart.point(*([0] * ds)), s_chart.point(*([1] * ds))]
    tau = ref_generalized_tangent(sub)
    jmat = sub.restrict_matrix(structure.matrix())
    failures = []
    for idx, u in enumerate(tau):
        ju = GenVector.from_coords(linalg.mat_vec(jmat, list(u.coords())))
        for jdx, w in enumerate(tau):
            if ju.pair(w):
                failures.append((idx, jdx))
    blocks = structure.blocks()
    symplectic_type = not any(map(any, blocks.a))
    complex_type = not any(map(any, blocks.b_map + blocks.beta_map))
    pmap_r = sub.restrict_matrix(blocks.beta_map)
    # P(N*S) in TS on the whole chart, as polynomial identities
    coiso = not any(
        any(ref_normal_residues(sub, linalg.mat_vec(pmap_r, conormal)))
        for conormal in ref_conormals(sub)
    )
    char_samples = []
    for p in samples:
        pm = linalg.eval_matrix(pmap_r, p)
        char_rows = []
        for conormal in ref_conormals(sub):
            img = linalg.mat_vec(pm, [c.eval(p) for c in conormal])
            if any(img):
                char_rows.append(tuple(img))
        char_samples.append(tuple(char_rows))
    ell_samples = []
    for p in samples:
        rows = [[c.eval(p) for c in u.coords()] for u in tau]
        jp = linalg.eval_matrix(jmat, p)
        images = [linalg.mat_vec(jp, r) for r in rows]
        coef_cols = [
            [images[s][i] - IUNIT * rows[s][i] for s in range(len(rows))]
            for i in range(2 * m)
        ]
        ker = linalg.kernel(coef_cols)
        ell_samples.append(tuple(map(tuple, linalg.mat_mul(ker, rows))))
    out = dict(
        compatible=not failures, failures=tuple(failures[:8]), coisotropic=coiso,
        lagrangian=None, complex_stable=None, f_type_11=None, sigma_basic=None,
        space_filling_j=None, space_filling_j_squared_ok=None, sigma_20=None,
        ell_frame_samples=tuple(ell_samples), characteristic_samples=tuple(char_samples),
    )
    if symplectic_type:
        omega_pull = sub.pull_form(two_form_from_map(blocks.b_map))
        if sub.graph:
            out["lagrangian"] = 2 * ds == m and not sub.f2 and not omega_pull
        sigma = sub.f2 + omega_pull.scale(IUNIT)
        dsigma = d(s_chart, sigma)
        out["sigma_basic"] = True
        for p, char_rows in zip(samples, char_samples):
            for xi_img in char_rows:
                xs = sub.to_s_vector(list(xi_img))
                if sigma.eval_at(p).contract(xs) or dsigma.eval_at(p).contract(xs):
                    out["sigma_basic"] = False
        if not sub.graph and sub.f2:
            idx = sub.param_indices
            p_s = [[pmap_r[i][k] for k in idx] for i in idx]
            jnew = linalg.mat_mul(p_s, map_from_two_form(sub.f2))
            out["space_filling_j"] = tuple(tuple(row) for row in jnew)
            jsq = linalg.mat_mul(jnew, jnew)
            out["space_filling_j_squared_ok"] = all(
                jsq[i][k] == (-ONE if i == k else ZERO) for i in range(m) for k in range(m)
            )
            out["sigma_20"] = False
            if out["space_filling_j_squared_ok"]:
                for orient in (IUNIT, -IUNIT):
                    ok = True
                    for a in range(m):
                        ja = [jnew[i][a] for i in range(m)]
                        ua = [s_chart.one() if t == a else s_chart.zero() for t in range(m)]
                        if sigma.contract(ja) - sigma.contract(ua).scale(orient):
                            ok = False
                    if ok:
                        out["sigma_20"] = True
    if complex_type:
        jendo = sub.restrict_matrix([[-x for x in row] for row in blocks.a])
        out["complex_stable"] = True
        jl = []
        for lift in ref_tangent_lifts(sub):
            img = linalg.mat_vec(jendo, list(lift))
            if any(bool(r) for r in ref_normal_residues(sub, img)):
                out["complex_stable"] = False
            jl.append(img)
        out["f_type_11"] = True
        for a in range(ds):
            for b in range(ds):
                ja, jb = sub.to_s_vector(jl[a]), sub.to_s_vector(jl[b])
                ua = [s_chart.one() if t == a else s_chart.zero() for t in range(ds)]
                ub = [s_chart.one() if t == b else s_chart.zero() for t in range(ds)]
                lhs = sub.f2.contract(ja).contract(jb).coeff(0)
                rhs = sub.f2.contract(ua).contract(ub).coeff(0)
                if lhs - rhs:
                    out["f_type_11"] = False
    return out


def random_brane(rng, kind):
    """A structure of the given block kind and a random trivialized graph.

    Charts are real or complex-paired of dimension 2 or 4, graphs have degree
    0 or 1, and F is constant or the d of a quadratic 1-form.
    """
    n = rng.r.choice((1, 2))
    m = 2 * n
    chart = Chart.complex_plane(n) if rng.r.random() < 0.5 else Chart.real(*CH.names[:m])
    if kind == "symplectic":
        s = rng.gc_structure(m, 0, 1, kinds=("gl",))
    elif kind == "complex":
        s = rng.gc_structure(m, n, 1, kinds=("gl",))
    else:
        s = rng.gc_structure(m, rng.r.randint(0, n), 2)
    ds = rng.r.randint(1, m)
    params = tuple(rng.r.sample(range(m), ds))
    s_chart = Chart(tuple(chart.names[i] for i in params))
    graph = {
        j: rng.poly(s_chart, rng.r.choice((0, 1)), 2)
        for j in range(m) if j not in params
    }
    f2 = None
    if ds > 1 and rng.r.random() < 0.7:
        if rng.r.random() < 0.5:
            f2 = rng.two_form(ds)
        else:
            f2 = d(s_chart, MixedForm(ds, {1 << a: rng.poly(s_chart, 2, 2) for a in range(ds)}))
    return s, SubmanifoldData(chart, params, graph, f2)


def structured_branes():
    """Compatible and space-filling cases that random graphs rarely reach."""
    out = [(sy_dxdp(), plane((0, 1), (2, 3))), (sy_dxdp(), plane((0, 2), (1, 3)))]
    for seed in range(6):
        wmap, fmap = dense_space_filling(4, seed)
        f = two_form_from_map(fmap)
        out.append((j_symplectic(wmap), whole_chart(CH, f)))
        out.append((j_symplectic(wmap), SubmanifoldData(CH, (1, 0, 3, 2), {}, f)))
        out.append((j_symplectic(wmap), whole_chart(CH, f.scale(2))))
    chc = Chart.complex_plane(2)
    sj = j_complex(standard_complex_endo(2))
    for f in (MixedForm(4, {0b0011: ONE}), MixedForm(4, {0b0101: ONE, 0b1010: -ONE})):
        out.append((sj, whole_chart(chc, f)))
    zero = Poly.zero(("x1", "x2"))
    out.append((sj, SubmanifoldData(chc, (0, 1), {2: zero, 3: zero})))
    return out


def three_samples(s_chart):
    """The two default samples and one point off them.

    The third point is not real, so where tau is polynomial its rows there
    have imaginary parts, which the rows of (J tau - i tau)^T must keep
    apart from the -i tau they also carry.
    """
    ds = s_chart.dim
    off = [GaussRat(Fraction((-1) ** k * (k + 2), k + 1), Fraction(1, k + 2)) for k in range(ds)]
    return [s_chart.point(*([0] * ds)), s_chart.point(*([1] * ds)), s_chart.point(*off)]


class TestAgainstThePairwiseLoops:
    FIELDS = BraneReport._fields
    PER_SAMPLE = ("ell_frame_samples", "characteristic_samples")

    def assert_same(self, s, sub):
        assert sub.tangent_lifts() == ref_tangent_lifts(sub)
        assert sub.conormals() == ref_conormals(sub)
        assert list(generalized_tangent(sub).sections) == ref_generalized_tangent(sub)
        rep, ref = brane_check(s, sub), ref_brane_check(s, sub)
        for name in self.FIELDS:
            assert getattr(rep, name) == ref[name], name
        samples = three_samples(sub.chart_s())
        rep, ref = brane_check(s, sub, samples), ref_brane_check(s, sub, samples)
        for name in self.FIELDS:
            if name in self.PER_SAMPLE:
                assert len(getattr(rep, name)) == len(samples), name
                for k, (got, want) in enumerate(zip(getattr(rep, name), ref[name])):
                    assert got == want, (name, k)
            else:
                assert getattr(rep, name) == ref[name], name

    @pytest.mark.parametrize("kind", ["symplectic", "complex", "conjugated"])
    def test_random_branes(self, kind):
        rng = Rng({"symplectic": 11, "complex": 12, "conjugated": 13}[kind])
        for _ in range(70):
            self.assert_same(*random_brane(rng, kind))

    def test_structured_branes(self):
        reached = set()
        for s, sub in structured_branes():
            self.assert_same(s, sub)
            rep = brane_check(s, sub)
            reached.add((rep.compatible, rep.sigma_20, rep.f_type_11))
        assert {(True, True, None), (False, False, None), (False, None, False)} <= reached


class TestSampleBlock:
    """The ell kernel runs once for a constant brane, once per sample otherwise."""

    def kernel_calls(self, monkeypatch, structure, sub, samples):
        calls = []
        kernel = linalg.integer_kernel

        def counted(rows, ncols, cap=None):
            calls.append(ncols)
            return kernel(rows, ncols, cap)

        monkeypatch.setattr(linalg, "integer_kernel", counted)
        return brane_check(structure, sub, samples=samples), len(calls)

    def test_constant_brane_decided_once(self, monkeypatch):
        wmap, fmap = dense_space_filling(4, 0)
        s, sub = j_symplectic(wmap), whole_chart(CH, two_form_from_map(fmap))
        samples = three_samples(CH)
        rep, calls = self.kernel_calls(monkeypatch, s, sub, samples)
        assert calls == 1
        ref = ref_brane_check(s, sub, samples)
        assert len(rep.ell_frame_samples) == len(rep.characteristic_samples) == 3
        assert rep.ell_frame_samples == ref["ell_frame_samples"]
        assert rep.characteristic_samples == ref["characteristic_samples"]
        assert rep.coisotropic == ref["coisotropic"]

    def test_no_samples(self, monkeypatch):
        wmap, fmap = dense_space_filling(4, 0)
        rep, calls = self.kernel_calls(
            monkeypatch, j_symplectic(wmap), whole_chart(CH, two_form_from_map(fmap)), []
        )
        assert calls == 0
        assert rep.ell_frame_samples == rep.characteristic_samples == ()
        assert rep.coisotropic

    def test_polynomial_j_once_per_sample(self, monkeypatch):
        # J holds x2, which stays a coordinate of the graph x3 = x4 = 0
        s = nonclosed_omega_structure()
        zero = Poly.zero(("x1", "x2"))
        sub = SubmanifoldData(R4, (0, 1), {2: zero, 3: zero})
        assert any(isinstance(x, Poly) for row in sub.restrict_matrix(s.matrix()) for x in row)
        samples = three_samples(sub.chart_s())
        rep, calls = self.kernel_calls(monkeypatch, s, sub, samples)
        assert calls == 3
        ref = ref_brane_check(s, sub, samples)
        assert rep.ell_frame_samples == ref["ell_frame_samples"]
        assert rep.characteristic_samples == ref["characteristic_samples"]
        assert len(set(rep.characteristic_samples)) == 3
