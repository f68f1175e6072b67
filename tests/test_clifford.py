import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo.scalars import GaussRat, NoExactSquareRoot, IUNIT, ONE, ZERO
from gcgeo.forms import MixedForm, map_from_two_form, mukai_coeff, two_form_from_map
from gcgeo.charts import Chart
from gcgeo.clifford import (
    BlockTransform, GenVector, SoElement, gl_pullback_inverse, pairing_matrix,
)
from gcgeo.randgen import Rng
from gcgeo import linalg

from conftest import gauss_rats
from test_forms import blade, forms


@st.composite
def gen_vectors(draw, dim=3):
    vec = [draw(gauss_rats(span=2, den=2)) for _ in range(dim)]
    cov = [draw(gauss_rats(span=2, den=2)) for _ in range(dim)]
    return GenVector(dim, vec, cov)


class TestCliffordAction:
    def test_contraction_example(self):
        m = 4
        v = GenVector.basis_vector(m, 0)
        assert v.act(blade(m, 1, 2)) == blade(m, 2)

    def test_square_example(self):
        m = 4
        v = GenVector.basis_vector(m, 0) + GenVector.basis_covector(m, 0)
        out = v.act(v.act(blade(m, 2)))
        assert out == blade(m, 2)
        assert v.pair(v) == ONE

    def test_wedge_cyclic_sign(self):
        m = 4
        v = GenVector.basis_covector(m, 2)
        assert v.act(blade(m, 1, 2)) == blade(m, 1, 2, 3)

    @given(gen_vectors(), forms(dim=3))
    @settings(max_examples=60, deadline=None)
    def test_clifford_relation(self, v, phi):
        # v.(v.phi) = <v,v> phi exactly
        lhs = v.act(v.act(phi))
        assert lhs == phi.scale(v.pair(v))

    @given(gen_vectors(), gen_vectors(), forms(dim=3))
    @settings(max_examples=40, deadline=None)
    def test_polarized_relation(self, v, w, phi):
        lhs = v.act(w.act(phi)) + w.act(v.act(phi))
        assert lhs == phi.scale(GaussRat(2) * v.pair(w))


class TestPairingMatrix:
    @pytest.mark.parametrize("seed", range(20))
    def test_twice_the_pairing_on_polynomial_sections(self, seed):
        rng = Rng(seed)
        chart = Chart.real("x", "y", "z")
        a = [rng.section(chart, rng.r.randint(0, 2)) for _ in range(rng.r.randint(1, 4))]
        b = [rng.section(chart, rng.r.randint(0, 2)) for _ in range(rng.r.randint(1, 4))]
        got = pairing_matrix([u.coords() for u in a], [w.coords() for w in b])
        assert len(got) == len(a) and all(len(row) == len(b) for row in got)
        for u, row in zip(a, got):
            for w, x in zip(b, row):
                assert not x - GaussRat(2) * u.pair(w)

    @given(st.lists(gen_vectors(), min_size=1, max_size=4), st.lists(gen_vectors(), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_twice_the_pairing_on_constants(self, a, b):
        got = pairing_matrix([u.coords() for u in a], [w.coords() for w in b])
        assert got == [[GaussRat(2) * u.pair(w) for w in b] for u in a]


class TestSpinAction:
    def test_b_field_example(self):
        m = 2
        x = SoElement(m, b_map=map_from_two_form(blade(m, 1, 2)))
        assert x.spin_act(MixedForm.one(m)) == -blade(m, 1, 2)

    def test_beta_exp_example(self):
        m = 2
        t = BlockTransform.from_bivector(blade(m, 1, 2, variance="mv"))
        assert t.spinor(blade(m, 1, 2)) == MixedForm.one(m) + blade(m, 1, 2)

    def test_gl_identity_infinitesimal(self):
        m = 2
        a = SoElement(m, a=linalg.identity(m))
        assert not a.spin_act(blade(m, 1))

    def test_b_exp_is_wedge_exponential(self):
        m = 4
        b = blade(m, 1, 2) + blade(m, 3, 4).scale(GaussRat(2))
        t = BlockTransform.from_two_form(b)
        phi = MixedForm.one(m) + blade(m, 1)
        assert t.spinor(phi) == (-b).exp_wedge().wedge(phi)

    def test_gl_density_action(self):
        m = 2
        g = [[GaussRat(2), ZERO], [ZERO, GaussRat(2)]]
        t = BlockTransform(m, "gl", g)
        # sqrt(det) = 2; (g*)^{-1} e1 = e1/2
        assert t.spinor(blade(m, 1)) == blade(m, 1)
        assert t.spinor(MixedForm.one(m)) == MixedForm.one(m).scale(GaussRat(2))

    def test_gl_density_requires_square_det(self):
        m = 2
        g = [[GaussRat(2), ZERO], [ZERO, ONE]]
        t = BlockTransform(m, "gl", g)
        with pytest.raises(NoExactSquareRoot):
            t.spinor(MixedForm.one(m))
        # the untwisted pullback action exists regardless
        assert t.spinor_untwisted(blade(m, 1)) == blade(m, 1).scale(GaussRat(Fraction(1, 2)))

    def test_singular_gl_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            BlockTransform(2, "gl", [[ONE, ZERO], [ONE, ZERO]])


def so_basis(m):
    """All single-entry so-elements: A_ij, B_ij, beta_ij."""
    out = []
    for i in range(m):
        for j in range(m):
            a = linalg.zeros(m, m)
            a[i][j] = ONE
            out.append(SoElement(m, a=a))
    for i in range(m):
        for j in range(i + 1, m):
            b = linalg.zeros(m, m)
            b[i][j] = ONE
            b[j][i] = -ONE
            out.append(SoElement(m, b_map=b))
            out.append(SoElement(m, beta_map=b))
    return out


class TestSoRepresentation:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_commutator_realizes_so_action(self, m):
        # spin_act(x, v.phi) - v.spin_act(x, phi) = (d rho_x v).phi over the
        # full basis of so elements, generators, and basis forms
        gens = [GenVector.basis_vector(m, i) for i in range(m)] + [
            GenVector.basis_covector(m, i) for i in range(m)
        ]
        for x in so_basis(m):
            for v in gens:
                dv = x.apply(v)
                for mask in range(1 << m):
                    phi = MixedForm(m, {mask: ONE})
                    lhs = x.spin_act(v.act(phi)) - v.act(x.spin_act(phi))
                    assert lhs == dv.act(phi), (m, mask)

    def test_so_matrix_is_antiselfadjoint(self):
        m = 3
        rng = random.Random(3)
        for x in so_basis(m):
            t = x.so_matrix()
            gens = [GenVector.basis_vector(m, i) for i in range(m)] + [
                GenVector.basis_covector(m, i) for i in range(m)
            ]
            for u in gens:
                for v in gens:
                    tu = GenVector.from_coords(linalg.mat_vec(t, u.coords()))
                    tv = GenVector.from_coords(linalg.mat_vec(t, v.coords()))
                    assert tu.pair(v) + u.pair(tv) == ZERO


class TestSpinInvariance:
    @pytest.mark.parametrize("m", [2, 4])
    def test_mukai_b_invariance(self, m):
        rng = random.Random(m)
        for _ in range(25):
            mat = [[ZERO] * m for _ in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    c = GaussRat(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
                    mat[i][j] = c
                    mat[j][i] = -c
            t = BlockTransform(m, "B", mat)
            s = MixedForm(m, {rng.randrange(1 << m): GaussRat(rng.randint(-2, 2), 1) for _ in range(3)})
            u = MixedForm(m, {rng.randrange(1 << m): GaussRat(rng.randint(-2, 2)) for _ in range(3)})
            assert mukai_coeff(t.spinor(s), t.spinor(u)) == mukai_coeff(s, u)

    def test_orthogonality_of_transforms(self):
        m = 3
        rng = random.Random(11)
        for kind in ("B", "beta", "gl"):
            if kind == "gl":
                g = linalg.identity(m)
                g[0][1] = GaussRat(2)
                t = BlockTransform(m, "gl", g)
            else:
                mat = linalg.zeros(m, m)
                mat[0][1] = ONE
                mat[1][0] = -ONE
                t = BlockTransform(m, kind, mat)
            gens = [GenVector.basis_vector(m, i) for i in range(m)] + [
                GenVector.basis_covector(m, i) for i in range(m)
            ]
            for u in gens:
                for v in gens:
                    assert t.apply(u).pair(t.apply(v)) == u.pair(v)
