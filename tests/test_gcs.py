import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo.scalars import GaussRat, IUNIT, ONE, ZERO
from gcgeo.forms import MixedForm, covector_form, map_from_two_form, mukai_coeff, two_form_from_map
from gcgeo.clifford import BlockTransform, GenVector
from gcgeo.charts import Chart
from gcgeo.integrability import deform_by_bivector, holomorphic_bivector
from gcgeo.isotropics import (
    _ann_basis,
    canonical_form,
    cotangent_space,
    max_isotropic_from_spinor,
    pure_spinor_line,
    tangent_space,
    tensor_product,
    transform,
)
from gcgeo.gcs import (
    GCStructure,
    _check_exponent,
    InvalidStructure,
    canonical_spinor,
    darboux_point,
    direct_sum,
    eigenbundle,
    gc_from_pure_spinor,
    gc_type,
    grading_components,
    grading_project,
    hyperkahler_interpolation,
    j_complex,
    j_symplectic,
    poisson_of,
    quaternion_triple,
    spin_operator,
    standard_complex_endo,
    standard_symplectic_map,
    type_and_canonical_spinor,
    validate_gc,
)
from gcgeo.randgen import Rng
from gcgeo import linalg

from test_forms import blade


def sy(n):
    return j_symplectic(standard_symplectic_map(n))


def cx(n):
    return j_complex(standard_complex_endo(n))


def gram_orthogonal(j):
    """The reference test J^T G J == G, G twice the Gram matrix of the pairing."""
    m = len(j) // 2
    zero, one = linalg.zeros(m, m), linalg.identity(m)
    g = linalg.from_blocks(zero, one, one, zero)
    return linalg.mat_eq(linalg.mat_mul(linalg.transpose(j), linalg.mat_mul(g, j)), g)


class TestValidation:
    def test_standard_structures_validate(self):
        assert gc_type(sy(2)) == 0
        assert gc_type(cx(2)) == 2
        assert gc_type(direct_sum(cx(1), sy(1))) == 1

    def test_wrong_diagonal_sign_fails_orthogonality(self):
        jm = standard_complex_endo(1)
        zero = linalg.zeros(2, 2)
        bad = linalg.from_blocks(jm, zero, zero, linalg.transpose(jm))
        with pytest.raises(InvalidStructure, match="orthogonal: lower-right block is not -A\\^T"):
            validate_gc(bad)

    def test_beta_not_antisymmetric_fails_orthogonality(self):
        # [[0, -1], [1, 0]] on R + R*: J^2 = -1, but beta = (-1) is not antisymmetric
        bad = [[ZERO, -ONE], [ONE, ZERO]]
        with pytest.raises(InvalidStructure, match="orthogonal: upper-right block beta"):
            validate_gc(bad)

    def test_b_not_antisymmetric_fails_orthogonality(self):
        # A = J0 and -A^T = J0 square to -1; B = diag(1, -1) anticommutes with
        # J0, so J^2 = -1, but B is symmetric
        j0 = standard_complex_endo(1)
        b = [[ONE, ZERO], [ZERO, -ONE]]
        bad = linalg.from_blocks(j0, linalg.zeros(2, 2), b, j0)
        with pytest.raises(InvalidStructure, match="orthogonal: lower-left block B"):
            validate_gc(bad)

    def test_non_real_j_fails_before_its_square(self):
        # diag(i, i, -i, -i) squares to -1 and lies in so(T + T*), and used
        # to validate as type 1; at m = 1 diag(i, -i) failed as an odd type
        i, mi = IUNIT, -IUNIT
        for diag in ((i, i, mi, mi), (i, mi)):
            bad = [[x if r == c else ZERO for c in range(len(diag))] for r, x in enumerate(diag)]
            with pytest.raises(InvalidStructure, match=r"^J is not real: entry \(0,0\) is i$"):
                validate_gc(bad)
        # a polynomial entry is real only when every coefficient is
        chart = Chart.real("x", "y")
        jm = [list(r) for r in sy(1).matrix()]
        jm[0][3] = jm[0][3] + chart.var("x") * IUNIT
        with pytest.raises(InvalidStructure, match=r"^J is not real: entry \(0,3\)"):
            validate_gc(jm)

    @given(
        st.integers(0, 2**32 - 1), st.sampled_from([(2, 0), (2, 1), (4, 1), (4, 2)]), st.booleans()
    )
    @settings(max_examples=40, deadline=None)
    def test_block_test_agrees_with_the_gram_test(self, seed, m_k, in_so):
        # standard structures conjugated by B, beta and gl transforms are
        # orthogonal; conjugated by a random GL(2m) element they need not be
        m, k = m_k
        rng = Rng(seed)
        j = rng.gc_structure(m, k, conjugations=2 if in_so else 0).matrix()
        if not in_so:
            o = rng.gl_matrix(2 * m)
            j = linalg.mat_mul(o, linalg.mat_mul(j, linalg.inverse(o)))
        try:
            validate_gc(j)
        except InvalidStructure as e:
            assert "orthogonal" in str(e)
            assert not gram_orthogonal(j)
        else:
            assert gram_orthogonal(j)

    def test_deformed_polynomial_structure_validates(self):
        c2 = Chart.complex_plane(2)
        beta = holomorphic_bivector(c2, {(0, 1): c2.z(0) * c2.z(1)})
        s = deform_by_bivector(c2, cx(2), beta).structure
        assert not s.is_constant()
        assert validate_gc(s.matrix()).j == s.j
        assert gram_orthogonal(s.matrix())

    def test_j_squared_diagnostic(self):
        m = 2
        j = linalg.identity(2 * m)
        with pytest.raises(InvalidStructure, match="J\\^2"):
            validate_gc(j)

    def test_random_conjugates_validate(self):
        rng = Rng(2)
        for _ in range(10):
            s = rng.gc_structure(4, rng.r.choice([0, 1, 2]))
            assert gc_type(s) in (0, 1, 2)


class TestEigenbundle:
    def test_symplectic_eigenbundle(self):
        n = 2
        s = sy(n)
        L = eigenbundle(s)
        wmap = standard_symplectic_map(n)
        m = 2 * n
        for i in range(m):
            expected = GenVector(
                m,
                [ONE if j == i else ZERO for j in range(m)],
                [(-IUNIT) * wmap[j][i] for j in range(m)],
            )
            assert L.contains(expected)

    def test_complex_eigenbundle(self):
        n = 2
        s = cx(n)
        L = eigenbundle(s)
        # T_{0,1}: del_zbar = e_{2k-1} + i e_{2k}; T*_{1,0}: dz = e^{2k-1} + i e^{2k}
        m = 2 * n
        for k in range(n):
            v = GenVector(
                m,
                [ONE if j == 2 * k else (IUNIT if j == 2 * k + 1 else ZERO) for j in range(m)],
                [ZERO] * m,
            )
            c = GenVector(
                m,
                [ZERO] * m,
                [ONE if j == 2 * k else (IUNIT if j == 2 * k + 1 else ZERO) for j in range(m)],
            )
            assert L.contains(v) and L.contains(c)

    def test_direct_sum_eigenbundle(self):
        s = direct_sum(cx(1), sy(1))
        L = eigenbundle(s)
        assert L.type == 1
        assert L.intersection_dim(L.conj()) == 0

    @pytest.mark.parametrize(
        "diagonal,message",
        [
            ((IUNIT,) * 4, "+i eigenspace has dimension 4, expected 2"),
            ((ZERO,) * 4, "+i eigenspace has dimension 0, expected 2"),
            ((IUNIT, IUNIT, -IUNIT, -IUNIT), "eigenbundle meets its conjugate"),
        ],
    )
    def test_unvalidated_structure_refused(self, diagonal, message):
        # a raw GCStructure skips validate_gc, so both eigenbundle checks are
        # reachable: i Id and 0 give the wrong dimension, and diag(i, i, -i, -i)
        # has the real eigenbundle V, which is its own conjugate
        j = tuple(tuple(d if r == c else ZERO for c in range(4)) for r, d in enumerate(diagonal))
        with pytest.raises(InvalidStructure) as err:
            eigenbundle(GCStructure(2, j))
        assert str(err.value) == message

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 13, 2) for k in range(m // 2 + 1)])
    def test_one_elimination_equals_the_reduced_kernel(self, m, k, dense):
        # the reference reduces twice: the kernel of J - i, then its rref
        if dense:
            s = dense_structure(m, k, seed=m + k)
        else:
            s = Rng(10 * m + k).gc_structure(m, k, conjugations=3, kinds=("B", "gl"))
        a = [list(row) for row in s.j]
        for i, row in enumerate(a):
            row[i] = row[i] - IUNIT
        want = canonical_form([GenVector.from_coords(v) for v in linalg.kernel(a)], m)
        got = eigenbundle(s)
        assert got == want and repr(got) == repr(want)
        assert got.type == k


class TestTypeAndSpinor:
    def test_symplectic_spinor(self):
        n = 2
        k, data = type_and_canonical_spinor(sy(n))
        assert k == 0
        w = two_form_from_map(standard_symplectic_map(n))
        assert data.generator.proportional_to(w.scale(IUNIT).exp_wedge())
        assert not data.b2
        assert data.om2.proportional_to(w)

    def test_complex_spinor(self):
        n = 2
        k, data = type_and_canonical_spinor(cx(n))
        assert k == n
        # Omega spans dz1 ^ dz2
        ch_dz = lambda kk: MixedForm(
            2 * n, {1 << (2 * kk): ONE, 1 << (2 * kk + 1): IUNIT}
        )
        assert data.generator.proportional_to(ch_dz(0).wedge(ch_dz(1)))

    def test_type_jump_point_evaluation(self):
        # the deformed structure at the point z1 = 1: k = 0, generator 1 + dz1dz2
        m = 4
        dz1 = MixedForm(m, {1 << 0: ONE, 1 << 1: IUNIT})
        dz2 = MixedForm(m, {1 << 2: ONE, 1 << 3: IUNIT})
        rho = MixedForm.one(m) + dz1.wedge(dz2)
        s = gc_from_pure_spinor(rho)
        k, data = type_and_canonical_spinor(s)
        assert k == 0
        assert data.generator.proportional_to(rho)
        # and at z1 = 0 the generator is dz1^dz2: complex type
        s2 = gc_from_pure_spinor(dz1.wedge(dz2))
        assert gc_type(s2) == 2

    def test_orientation_form_nonzero(self):
        rng = Rng(5)
        for _ in range(10):
            s = rng.gc_structure(4, rng.r.choice([0, 1, 2]))
            k, data = type_and_canonical_spinor(s)
            assert mukai_coeff(data.generator, data.generator.conj())

    def test_b_transformed_symplectic_extraction(self):
        # exp(B) e^{iw} has B-part exactly B and omega-part w
        n = 2
        m = 2 * n
        rng = Rng(11)
        for _ in range(10):
            b = rng.two_form(m)
            t = BlockTransform.from_two_form(b)
            j = linalg.mat_mul(
                t.orth_matrix(),
                linalg.mat_mul(sy(n).matrix(), linalg.inverse(t.orth_matrix())),
            )
            s = validate_gc(j)
            k, data = type_and_canonical_spinor(s)
            assert k == 0
            w = two_form_from_map(standard_symplectic_map(n))
            # generator must be proportional to exp(-B) ... sign fixed by the test
            gen = data.generator
            expected = (data.b2 + data.om2.scale(IUNIT)).exp_wedge()
            assert gen.proportional_to(expected)
            assert data.om2.proportional_to(w)


class TestGrading:
    def test_symplectic_m2_components(self):
        s = sy(1)
        w = blade(2, 1, 2)
        one = MixedForm.one(2)
        up = grading_project(s, one, 1)
        down = grading_project(s, one, -1)
        mid = grading_project(s, one, 0)
        half = GaussRat(Fraction(1, 2))
        assert up == (one + w.scale(IUNIT)).scale(half)
        assert down == (one - w.scale(IUNIT)).scale(half)
        assert not mid

    def test_complex_pq_grading(self):
        # U^k = sum over p - q = k of (p, q) forms
        n = 2
        s = cx(n)
        m = 2 * n
        dz = lambda kk: MixedForm(m, {1 << (2 * kk): ONE, 1 << (2 * kk + 1): IUNIT})
        dzb = lambda kk: MixedForm(m, {1 << (2 * kk): ONE, 1 << (2 * kk + 1): -IUNIT})
        cases = {
            (1, 0): dz(0),
            (0, 1): dzb(1),
            (1, 1): dz(0).wedge(dzb(1)),
            (2, 0): dz(0).wedge(dz(1)),
            (2, 1): dz(0).wedge(dz(1)).wedge(dzb(0)),
        }
        for (p, q), phi in cases.items():
            for k in range(-n, n + 1):
                proj = grading_project(s, phi, k)
                if k == p - q:
                    assert proj == phi
                else:
                    assert not proj

    def test_resolution_of_identity(self):
        rng = Rng(13)
        for _ in range(8):
            s = rng.gc_structure(4, rng.r.choice([0, 1, 2]))
            phi = rng.form(4)
            comps = grading_components(s, phi)
            acc = MixedForm.zero(4)
            for c in comps.values():
                acc = acc + c
            assert acc == phi
            op = spin_operator(s)
            for k, c in comps.items():
                if c:
                    assert op(c) == c.scale(GaussRat(0, k))

    def test_extreme_projectors_hit_canonical_line(self):
        rng = Rng(17)
        n = 2
        for _ in range(8):
            s = rng.gc_structure(4, rng.r.choice([0, 1, 2]))
            k, data = type_and_canonical_spinor(s)
            gen = data.generator
            assert grading_project(s, gen, n) == gen
            assert grading_project(s, gen.conj(), -n) == gen.conj()
            phi = rng.form(4)
            top = grading_project(s, phi, n)
            if top:
                assert top.proportional_to(gen)


class TestPoisson:
    def test_symplectic_block(self):
        n = 2
        pmap, pmv = poisson_of(sy(n))
        wmap = standard_symplectic_map(n)
        winv = linalg.inverse(wmap)
        assert linalg.mat_eq(pmap, [[-x for x in row] for row in winv])

    def test_complex_block_zero(self):
        pmap, pmv = poisson_of(cx(2))
        assert linalg.is_zero_matrix(pmap)
        assert not pmv

    def test_image_is_symplectic_distribution(self):
        # rank of the Poisson block is the symplectic dimension 2(n - type);
        # beta conjugations may change the type, so read it back
        rng = Rng(19)
        for k in (0, 1, 2):
            s = rng.gc_structure(4, k)
            pmap, _ = poisson_of(s)
            assert linalg.rank(pmap) == 4 - 2 * gc_type(s)

    def test_tensor_identity_pointwise(self):
        # L^T x conj(L) = graph of iP/2
        rng = Rng(23)
        for _ in range(10):
            m = 4
            s = rng.gc_structure(m, rng.r.choice([0, 1, 2]))
            L = eigenbundle(s)
            prod = tensor_product(L.flip(), L.conj())
            pmap, _ = poisson_of(s)
            half_i = GaussRat(0, Fraction(1, 2))
            graph = []
            for j in range(m):
                xi = GenVector.basis_covector(m, j)
                vec = [half_i * pmap[i][j] for i in range(m)]
                graph.append(GenVector(m, vec, xi.covec))
            assert prod.equals(canonical_form(graph, m))


class TestDarboux:
    def test_trivial_cases(self):
        d0 = darboux_point(sy(2))
        assert d0.k == 0 and not d0.btilde
        assert d0.omega0.proportional_to(two_form_from_map(standard_symplectic_map(2)))
        d1 = darboux_point(cx(2))
        assert d1.k == 2 and not d1.btilde and not d1.omega0

    @pytest.mark.parametrize("m,k", [(2, 0), (2, 1), (4, 1), (4, 0), (6, 1), (8, 2)])
    def test_random_conjugates_keep_line(self, m, k):
        if 2 * k > m:
            pytest.skip("type too large")
        rng = Rng(100 * m + k)
        for _ in range(5):
            s = rng.gc_structure(m, k, conjugations=2, kinds=("B", "gl"))
            data = darboux_point(s)
            assert data.k == k
            regen = (data.btilde + data.omega0.scale(IUNIT)).exp_wedge().wedge(data.omega_k)
            assert regen.proportional_to(data.generator)


class TestExponentCheck:
    """e^A ^ Omega = phi is decided as A ^ Omega = phi_{k+2} (`gcs._check_exponent`).

    A term of the theta-ideal added to the exponent read off phi keeps both
    identities; a term outside it breaks both, and the check raises.
    """

    @pytest.mark.parametrize("m,k", [(4, 0), (4, 1), (6, 1), (6, 2), (8, 2), (8, 3)])
    def test_theta_ideal_passes_and_the_rest_raises(self, m, k):
        s = dense_structure(m, k, seed=7 * m + k)
        data = canonical_spinor(s)
        phi, omega_k, a2 = data.generator, data.omega_k, data.a2
        r = random.Random(m + k)

        def covector():
            return covector_form(m, [GaussRat(r.randint(-3, 3), r.randint(-3, 3)) for _ in range(m)])

        if k:
            theta = covector_form(m, _ann_basis(eigenbundle(s).delta_basis, m)[0])
            assert not theta.wedge(omega_k)
            inside = a2 + theta.wedge(covector())
            assert inside != a2
            _check_exponent(inside, omega_k, phi, k)
            assert inside.exp_wedge_on(omega_k) == phi
        outside = a2 + covector().wedge(covector())
        assert outside.wedge(omega_k) != a2.wedge(omega_k)
        with pytest.raises(InvalidStructure, match="does not reproduce the generator"):
            _check_exponent(outside, omega_k, phi, k)
        assert outside.exp_wedge_on(omega_k) != phi


class TestInterpolation:
    CIRCLE = [
        (GaussRat(0), GaussRat(1)),
        (GaussRat(Fraction(3, 5)), GaussRat(Fraction(4, 5))),
        (GaussRat(Fraction(4, 5)), GaussRat(Fraction(3, 5))),
        (GaussRat(1), GaussRat(0)),
    ]

    def test_anticommutation(self):
        i_m, j_m, k_m = quaternion_triple()
        ji = j_complex(i_m).matrix()
        jw = j_symplectic(j_m).matrix()
        ab = linalg.mat_mul(ji, jw)
        ba = linalg.mat_mul(jw, ji)
        assert linalg.mat_eq(ab, linalg.mat_scale(ba, -ONE))

    def test_circle_points_validate(self):
        for a, b in self.CIRCLE:
            s = hyperkahler_interpolation(a, b)
            assert gc_type(s) in (0, 2)
        with pytest.raises(InvalidStructure):
            hyperkahler_interpolation(GaussRat(1), GaussRat(1))

    def test_types_along_family(self):
        types = [gc_type(hyperkahler_interpolation(a, b)) for a, b in self.CIRCLE]
        assert types == [0, 0, 0, 2]


class TestFromSpinor:
    def test_round_trip_through_structure(self):
        rng = Rng(29)
        for _ in range(10):
            s = rng.gc_structure(4, rng.r.choice([0, 1, 2]))
            phi = pure_spinor_line(eigenbundle(s))
            s2 = gc_from_pure_spinor(phi)
            assert linalg.mat_eq(s.matrix(), s2.matrix())

    def test_rejects_real_spinor(self):
        # 1 has null space V with V = conj(V): not a complex polarization
        with pytest.raises(InvalidStructure) as err:
            gc_from_pure_spinor(MixedForm.one(2))
        assert str(err.value) == "null space meets its conjugate; spinor not of complex type"


class TestDarbouxInvariantBatch:
    def test_fifty_cases_dimension_two(self):
        # the smallest dimension exercises both pure types
        rng = Rng(202)
        for i in range(50):
            k = rng.r.choice([0, 1])
            s = rng.gc_structure(2, k, conjugations=2, kinds=("B", "gl"))
            data = darboux_point(s)
            assert data.k == k
            regen = (
                (data.btilde + data.omega0.scale(IUNIT)).exp_wedge().wedge(data.omega_k)
            )
            assert regen.proportional_to(data.generator)


def dense_structure(m, k, seed):
    """complex-k plus symplectic, conjugated by a B shear and then a GL map,
    every off-diagonal entry of both nonzero (one of +-1, +-1/2)."""
    r = random.Random(seed)

    def pick():
        return GaussRat(r.choice([-1, 1, Fraction(-1, 2), Fraction(1, 2)]))

    shear = linalg.zeros(m, m)
    lo, up = linalg.identity(m), linalg.identity(m)
    for i in range(m):
        for j in range(i):
            c = pick()
            shear[i][j], shear[j][i] = c, -c
            lo[i][j], up[j][i] = pick(), pick()
    g = linalg.mat_mul(lo, up)
    j = Rng(0).gc_structure(m, k, conjugations=0).matrix()
    for t, t_inv in (
        (BlockTransform(m, "B", shear), BlockTransform(m, "B", [[-x for x in row] for row in shear])),
        (BlockTransform(m, "gl", g), BlockTransform(m, "gl", linalg.inverse(g))),
    ):
        j = linalg.mat_mul(t.orth_matrix(), linalg.mat_mul(j, t_inv.orth_matrix()))
    return validate_gc(j)


class TestDarbouxAtM12:
    # darboux_point takes about 0.1-0.25 s at every k on a shared 2-core
    # machine, against the bound of 20 s
    BOUND_S = 20.0

    @pytest.mark.parametrize("k", range(7))
    def test_dense_structure_in_bounded_time(self, k):
        s = dense_structure(12, k, seed=k)
        start = time.perf_counter()
        data = darboux_point(s)
        assert time.perf_counter() - start < self.BOUND_S
        assert data.k == k and len(data.delta_frame) == 12 - 2 * k
        assert len(data.generator.terms) > 1000
        regen = (data.btilde + data.omega0.scale(IUNIT)).exp_wedge_on(data.omega_k)
        assert regen.proportional_to(data.generator)
