import time

import pytest

from gcgeo.scalars import GaussRat, Poly, IUNIT, ONE, ZERO, HALF
from gcgeo.forms import MixedForm
from gcgeo.clifford import GenVector
from gcgeo.charts import Chart
from gcgeo.fields import (
    ClosedThreeForm,
    DiracFrame,
    courant_bracket,
    d,
    involutivity_tensor,
    is_involutive,
)
from gcgeo.algebroid import (
    LiePair,
    complex_pair,
    eps_from_bivector,
    eps_sharp,
    maurer_cartan,
    r_lie_derivative,
    r_section_bracket,
)
from gcgeo.randgen import Rng


C2 = Chart.complex_plane(2)


class TestLiePair:
    def test_complex_pair_validates(self):
        # frames pair anti-diagonally: <del_zbar_k, dzbar_k> = <dz_k, del_z_k> = 1/2
        pair = complex_pair(C2)
        gram = pair.pairing()
        n = C2.n_complex
        for i, row in enumerate(gram):
            for j, v in enumerate(row):
                want = HALF if abs(i - j) == n else ZERO
                got = v.const_value() if isinstance(v, Poly) else v
                assert got == want

    def test_non_transverse_rejected(self):
        ch = Chart.real("x", "y")
        frame = (ch.coordinate_vector(0), ch.coordinate_vector(1))
        with pytest.raises(ValueError, match="transverse"):
            LiePair(ch, frame, frame)

    @staticmethod
    def rescaled_c1():
        # the C^1 pair with l_0 doubled has the non-symmetric Gram matrix
        # [[0, 1], [1/2, 0]], so it tells G^-1 from G^-T
        c1 = Chart.complex_plane(1)
        base = complex_pair(c1)
        l0 = base.frame_l[0].scale(GaussRat(2))
        return c1, LiePair(c1, (l0, base.frame_l[1]), base.frame_r)

    def test_projections_resolve_sections(self):
        c1, rescaled = self.rescaled_c1()
        assert rescaled.l_components(rescaled.frame_l[0]) == [ONE, ZERO]
        rng = Rng(3)
        for chart, pair in ((C2, complex_pair(C2)), (c1, rescaled)):
            u = rng.section(chart, 1)
            lc = pair.l_components(u)
            rc = pair.r_components(u)
            m = chart.dim
            acc = GenVector(m, [chart.zero()] * m, [chart.zero()] * m)
            for c, l in zip(lc, pair.frame_l):
                acc = acc + l.scale(c)
            for c, r in zip(rc, pair.frame_r):
                acc = acc + r.scale(c)
            assert (acc - u).is_zero()

    def test_eps_sharp_pairs_back_to_eps(self):
        c1, rescaled = self.rescaled_c1()
        e = c1.z(0) * c1.zbar(0) + c1.const(IUNIT)
        eps = {0b11: e}
        want = [[c1.zero(), e], [-e, c1.zero()]]
        for i in range(2):
            sharp = eps_sharp(rescaled, eps, i)
            for j in range(2):
                assert sharp.pair(rescaled.frame_l[j]) == want[i][j]


class TestDifferential:
    def test_dl_on_functions_is_dbar(self):
        pair = complex_pair(C2)
        f = C2.z(0) * C2.zbar(0) + C2.z(1)
        df = pair.d_l({0: f})
        # components on (del_zbar1, del_zbar2) slots are the dbar derivatives,
        # dz-slots vanish
        assert df.get(0b0001, C2.zero()) == C2.diff_zbar(f, 0)
        assert df.get(0b0010, C2.zero()) == C2.diff_zbar(f, 1)
        assert 0b0100 not in df and 0b1000 not in df

    def test_dl_squared_zero(self):
        pair = complex_pair(C2)
        rng = Rng(5)
        for _ in range(6):
            f = rng.poly(C2, 2, 3, complex_ok=True)
            d1 = pair.d_l({0: f})
            assert not pair.d_l(d1)
            mu = {
                0b0001: rng.poly(C2, 2, 2, complex_ok=True),
                0b0100: rng.poly(C2, 2, 2, complex_ok=True),
            }
            assert not pair.d_l(pair.d_l(mu))

    def test_constant_multisection_closed_on_flat_frame(self):
        pair = complex_pair(C2)
        mu = {0b0011: C2.one()}
        assert not pair.d_l(mu)

    def test_derivation_property(self):
        # d_L[a, b] = [d_L a, b] + [a, d_L b] for sections of L* = R
        pair = complex_pair(C2)
        rng = Rng(7)
        m = C2.dim
        for _ in range(4):
            a = [rng.poly(C2, 1, 2, complex_ok=True) for _ in range(m)]
            b = [rng.poly(C2, 1, 2, complex_ok=True) for _ in range(m)]
            ab = r_section_bracket(pair, a, b)
            # as Lambda^1 L* functionals: mu_a(l_i) = <a, l_i>
            to_mu = lambda comps: {
                1 << i: sum(
                    (
                        comps[j] * pair.frame_r[j].pair(pair.frame_l[i])
                        for j in range(m)
                    ),
                    C2.zero(),
                )
                for i in range(m)
            }
            lhs = pair.d_l(_clean(to_mu(ab)))
            # [d_L a, b] = -L_b(d_L a) as an R-bivector, then back to functionals
            da = pair.d_l(_clean(to_mu(a)))
            db = pair.d_l(_clean(to_mu(b)))
            da_r = _functional_to_r(pair, da, 2)
            db_r = _functional_to_r(pair, db, 2)
            t1 = _neg(r_lie_derivative(pair, b, da_r))
            t2 = r_lie_derivative(pair, a, db_r)
            rhs_r = _add(t1, t2)
            rhs = _r_to_functional(pair, rhs_r, 2)
            assert _clean(lhs) == _clean(rhs)


class TestAgainstTheMaskLoop:
    """d_L and L_b against the slot-by-slot formulas, on a pair whose
    structure constants do not vanish.

    B = (z1 zbar2 + z2^2) dzbar1 ^ dzbar2 and H = dB: [del_zbar1, del_zbar2]_H
    is the dz-covector i i H, so dtheta^2 and dtheta^3 are nonzero.
    """

    @staticmethod
    def twisted_pair():
        coeff = C2.z(0) * C2.zbar(1) + C2.z(1) ** 2
        b = C2.lift_form(C2.dzbar(0).wedge(C2.dzbar(1))).scale(coeff)
        return complex_pair(C2, ClosedThreeForm(C2, d(C2, b)))

    @staticmethod
    def multisection(rng, k):
        m = C2.dim
        return _clean({
            mask: rng.poly(C2, 2, 2, complex_ok=True)
            for mask in range(1 << m)
            if mask.bit_count() == k and rng.r.random() < 0.7
        })

    def test_structure_constants_are_nonzero(self):
        pair = self.twisted_pair()
        secs = pair.frame_l
        c = pair.l_components(courant_bracket(C2, secs[0], secs[1], pair.h))
        assert c[2] and c[3]

    def test_d_l_matches_reference(self):
        pair = self.twisted_pair()
        rng = Rng(23)
        for k in range(4):
            for _ in range(3):
                mu = self.multisection(rng, k)
                assert pair.d_l(mu) == _d_l_reference(pair, mu, k)

    def test_d_l_squared_zero(self):
        pair = self.twisted_pair()
        rng = Rng(29)
        degrees = set()
        for k in range(3):
            for _ in range(2):
                dmu = pair.d_l(self.multisection(rng, k))
                degrees |= {mask.bit_count() for mask in dmu}
                assert not pair.d_l(dmu)
        assert degrees == {1, 2, 3}, "family must reach a nonzero d_L mu in each degree"

    def test_r_lie_derivative_matches_reference(self):
        pair = self.twisted_pair()
        rng = Rng(31)
        m = C2.dim
        for k in range(4):
            b = [rng.poly(C2, 1, 2, complex_ok=True) for _ in range(m)]
            mu = self.multisection(rng, k)
            assert r_lie_derivative(pair, b, mu) == _r_lie_derivative_reference(pair, b, mu, k)


def _mask_indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _component(mu, indices, chart):
    """mu at an arbitrary index order: the sign of the sorting permutation."""
    idx = list(indices)
    if len(set(idx)) < len(idx):
        return chart.zero()
    inversions = sum(a > b for p, a in enumerate(idx) for b in idx[p + 1:])
    val = mu.get(sum(1 << i for i in idx), chart.zero())
    return -val if inversions % 2 else val


def _d_l_reference(pair, mu, k):
    """d_L mu(l_I) = sum_p (-1)^p rho(l_ip) mu(..) + sum_{p<q} (-1)^{p+q} mu([l_ip, l_iq], ..)."""
    chart = pair.chart
    secs = pair.frame_l
    out = {}
    for mask in range(1 << chart.dim):
        if mask.bit_count() != k + 1:
            continue
        idx = _mask_indices(mask)
        acc = chart.zero()
        for p, i in enumerate(idx):
            val = _component(mu, [t for t in idx if t != i], chart)
            term = sum((x * val.diff(n) for x, n in zip(secs[i].vec, chart.names)), chart.zero())
            acc = acc - term if p % 2 else acc + term
        for p in range(len(idx)):
            for q in range(p + 1, len(idx)):
                i, j = idx[p], idx[q]
                rest = [t for t in idx if t != i and t != j]
                comps = pair.l_components(courant_bracket(chart, secs[i], secs[j], pair.h))
                val = sum((c * _component(mu, [t] + rest, chart) for t, c in enumerate(comps) if c),
                          chart.zero())
                acc = acc - val if (p + q) % 2 else acc + val
        if acc:
            out[mask] = acc
    return out


def _r_lie_derivative_reference(pair, b_comps, mu, k):
    """L_b(f r_I) = (pi(b) f) r_I + f sum_p r_i1 ^ .. [b, r_ip] .. ^ r_ik, slot by slot."""
    chart = pair.chart
    m = chart.dim
    b_vec = [sum((c * r.vec[t] for c, r in zip(b_comps, pair.frame_r)), chart.zero())
             for t in range(m)]
    out = {}
    for mask, f in mu.items():
        idx = _mask_indices(mask)
        out[mask] = out.get(mask, chart.zero()) + sum(
            (x * f.diff(n) for x, n in zip(b_vec, chart.names)), chart.zero())
        for p, i in enumerate(idx):
            unit = [ONE if t == i else ZERO for t in range(m)]
            for j, c in enumerate(r_section_bracket(pair, b_comps, unit)):
                if not c:
                    continue
                slots = idx[:p] + [j] + idx[p + 1:]
                if len(set(slots)) < len(slots):
                    continue
                new = sum(1 << t for t in slots)
                val = _component({new: f * c}, slots, chart)
                out[new] = out.get(new, chart.zero()) + val
    return _clean(out)


def _clean(d):
    return {k: v for k, v in d.items() if v}


def _neg(d):
    return {k: -v for k, v in d.items()}


def _add(d1, d2):
    out = dict(d1)
    for k, v in d2.items():
        cur = out.get(k)
        out[k] = v if cur is None else cur + v
    return _clean(out)


def _functional_to_r(pair: LiePair, mu: dict, k: int) -> dict:
    """Convert Lambda^k L* functional components to R-frame components."""
    m = pair.chart.dim
    gram = pair._gram  # <l_i, r_j>
    ginv = pair._gram_inv
    out = {}
    # mu(l_i, l_j) = sum_{a<b} R^{ab} (M_ia M_jb - M_ib M_ja); invert via ginv
    # do it slot by slot: R^{ab} = sum_{i,j} ginv^T ... use the dual frames
    # lambda^i = sum_j ginv[j][i]-weighted pairing; easier: express the
    # multivector directly: eps = sum_{i<j} mu_ij lam_i ^ lam_j with
    # lam_i = sum_t ginv^T[t][i]... build lam in R components:
    lam = [[ginv[t][i] for t in range(m)] for i in range(m)]
    # lam[i][t]: coefficient of r_t in the section realizing lambda^i
    # wait: <sum_t c_t r_t, l_j> = sum_t c_t gram[j][t] = delta_ij
    # => c = column i of gram^{-1} transposed appropriately
    for mask, val in mu.items():
        idx = [t for t in range(m) if mask & (1 << t)]
        if k == 1:
            i = idx[0]
            for t in range(m):
                c = val * lam[i][t]
                if c:
                    out[1 << t] = out.get(1 << t, pair.chart.zero()) + c
        elif k == 2:
            i, j = idx
            for t in range(m):
                for s in range(m):
                    if t == s:
                        continue
                    c = val * lam[i][t] * lam[j][s]
                    if not c:
                        continue
                    mk = (1 << t) | (1 << s)
                    sign = 1 if t < s else -1
                    out[mk] = out.get(mk, pair.chart.zero()) + (c if sign > 0 else -c)
        else:
            raise NotImplementedError
    return _clean(out)


def _r_to_functional(pair: LiePair, rv: dict, k: int) -> dict:
    m = pair.chart.dim
    gram = pair._gram
    out = {}
    for mask, val in rv.items():
        idx = [t for t in range(m) if mask & (1 << t)]
        if k == 2:
            a, b = idx
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    c = val * gram[i][a] * gram[j][b]
                    if not c:
                        continue
                    mk = (1 << i) | (1 << j)
                    sign = 1 if i < j else -1
                    out[mk] = out.get(mk, pair.chart.zero()) + (c if sign > 0 else -c)
        else:
            raise NotImplementedError
    return _clean(out)


class TestMaurerCartan:
    def test_holomorphic_bivector_passes(self):
        pair = complex_pair(C2)
        rng = Rng(11)
        for _ in range(5):
            f = C2.holo({(3, 0): rng.gauss(), (1, 1): rng.gauss(), (0, 2): rng.gauss()})
            beta = _holo_bivector(f)
            eps = eps_from_bivector(pair, beta)
            assert maurer_cartan(pair, eps).verdict == "pass"

    def test_b_component_passes(self):
        # eps = zbar1 dzbar1 ^ dzbar2: dbar-closed and bracket-free
        pair = complex_pair(C2)
        val = C2.zbar(0)
        eps = {0b0011: _functional_value(pair, val)}
        # eps(l_0, l_1) with l_i = del_zbar_i: the B-field direction
        rep = maurer_cartan(pair, {0b0011: val})
        assert rep.verdict == "pass"

    def test_antiholomorphic_bivector_fails(self):
        pair = complex_pair(C2)
        beta = _holo_bivector(C2.zbar(0))
        eps = eps_from_bivector(pair, beta)
        rep = maurer_cartan(pair, eps)
        assert rep.verdict == "fail"
        assert rep.residual

    def test_verdict_matches_deformed_graph_involutivity(self):
        pair = complex_pair(C2)
        rng = Rng(13)
        m = C2.dim
        seen = set()
        for _ in range(10):
            eps = {}
            for i in range(m):
                for j in range(i + 1, m):
                    if rng.r.random() < 0.4:
                        eps[(1 << i) | (1 << j)] = rng.poly(C2, 1, 1, complex_ok=True)
            rep = maurer_cartan(pair, eps)
            sharp = [eps_sharp(pair, eps, i) for i in range(m)]
            deformed = tuple(
                l + s for l, s in zip(pair.frame_l, sharp)
            )
            frame = DiracFrame(C2, deformed)
            want = {
                (1 << i) | (1 << j) | (1 << k): C2.lift(val)
                for (i, j, k), val in involutivity_tensor(frame, None).items()
                if j < k and val
            }
            assert rep.residual == want
            seen.add(rep.verdict)
            assert (rep.verdict == "pass") == is_involutive(frame, None)
        assert seen == {"pass", "fail"}, "family must exercise both verdicts"

    def test_linear_part_is_d_l(self):
        # R(t eps) = t d_L eps + t^2 Q + t^3 C, so 3R(eps) - 3/2 R(2eps) + 1/3 R(3eps) = d_L eps
        pair = complex_pair(C2)
        rng = Rng(17)
        m = C2.dim
        weights = ((1, GaussRat(3)), (2, GaussRat("-3/2")), (3, GaussRat("1/3")))
        for _ in range(15):
            eps = {}
            for i in range(m):
                for j in range(i + 1, m):
                    if rng.r.random() < 0.5:
                        eps[(1 << i) | (1 << j)] = rng.poly(C2, 2, 2, complex_ok=True)
            linear = {}
            for t, w in weights:
                scaled = {mask: v * GaussRat(t) for mask, v in eps.items()}
                for mask, v in maurer_cartan(pair, scaled).residual.items():
                    linear[mask] = linear.get(mask, C2.zero()) + v * w
            assert {k: v for k, v in linear.items() if v} == pair.d_l(eps)

    def test_dimension_12(self):
        ch = Chart.complex_plane(6)
        pair = complex_pair(ch)
        rng = Rng(19)
        eps = {(1 << i) | (1 << j): rng.poly(ch, 1, 2, complex_ok=True)
               for i in range(12) for j in range(i + 1, 12) if rng.r.random() < 0.3}
        t0 = time.perf_counter()
        rep = maurer_cartan(pair, eps)
        assert time.perf_counter() - t0 < 0.3
        assert rep.verdict == "fail" and rep.residual
        # a holomorphic Poisson bivector z1 d/dz1 ^ d/dz2 deforms integrably
        from gcgeo.integrability import holomorphic_bivector

        beta = holomorphic_bivector(ch, {(0, 1): ch.z(0)})
        assert maurer_cartan(pair, eps_from_bivector(pair, beta)).verdict == "pass"

    def test_kodaira_spencer_mixed_component(self):
        # eps on the (del_zbar2, dz2) slot deforms the complex structure in the
        # Beltrami direction dzbar2 (x) del_z2
        pair = complex_pair(C2)
        # holomorphic coefficient: integrable
        assert maurer_cartan(pair, {0b1010: C2.z(0)}).verdict == "pass"
        # zbar2 coefficient: dbar eps lands on dzbar2 ^ dzbar2 = 0, integrable
        assert maurer_cartan(pair, {0b1010: C2.zbar(1)}).verdict == "pass"
        # zbar1 coefficient: dbar eps has a dzbar1 ^ dzbar2 component, obstructed
        rep = maurer_cartan(pair, {0b1010: C2.zbar(0)})
        assert rep.verdict == "fail"
        assert rep.residual


def _holo_bivector(f: Poly) -> MixedForm:
    from gcgeo.integrability import holomorphic_bivector

    return holomorphic_bivector(C2, {(0, 1): f})


def _functional_value(pair: LiePair, v):
    return v
