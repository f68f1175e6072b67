import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo.charts import Chart
from gcgeo.scalars import GaussRat, IUNIT, ONE, ZERO
from gcgeo.forms import MixedForm, map_from_two_form, mukai_coeff
from gcgeo.clifford import BlockTransform, GenVector
from gcgeo.isotropics import (
    MaxIsotropic,
    NotIsotropic,
    NotPure,
    canonical_form,
    cotangent_space,
    dual_spinor_of,
    graph_of_bivector,
    graph_of_two_form,
    graph_over_cotangent,
    max_isotropic_from_spinor,
    null_space,
    pure_spinor_line,
    tangent_space,
    tensor_product,
    transform,
    transverse,
)
from gcgeo.randgen import Rng
from gcgeo import linalg

from conftest import gauss_rats
from test_forms import blade


class TestCanonicalForm:
    def test_tangent(self):
        m = 3
        v = tangent_space(m)
        assert v.type == 0 and v.parity == 0
        assert len(v.delta_basis) == m

    def test_cotangent(self):
        m = 3
        vs = cotangent_space(m)
        assert vs.type == m and vs.parity == m % 2
        assert vs.delta_basis == ()

    def test_graph_of_b(self):
        L = graph_of_two_form(blade(2, 1, 2))
        assert L.type == 0
        assert [list(r) for r in L.eps] == [[ZERO, ONE], [-ONE, ZERO]]

    def test_non_isotropic_rejected_naming_pair(self):
        m = 2
        bad = [GenVector.basis_vector(m, 0) + GenVector.basis_covector(m, 0),
               GenVector.basis_vector(m, 1)]
        with pytest.raises(NotIsotropic, match="0 and 0"):
            canonical_form(bad, m)

    def test_non_isotropic_names_the_inner_product(self):
        # <e_1, (1 + 2i) e^1 + e_2> = (1 + 2i) / 2, the first nonzero pair
        m = 2
        bad = [GenVector.basis_vector(m, 0),
               GenVector.basis_covector(m, 0, GaussRat(1, 2)) + GenVector.basis_vector(m, 1)]
        with pytest.raises(NotIsotropic) as err:
            canonical_form(bad, m)
        assert str(err.value) == "basis vectors 0 and 1 have inner product 1/2+i, not 0"

    def test_rank_deficient_rejected(self):
        m = 2
        v = GenVector.basis_vector(m, 0)
        with pytest.raises(NotIsotropic, match="rank"):
            canonical_form([v, v], m)

    def test_reconstruction_from_delta_eps(self):
        # the span L(Delta, eps) rebuilt from canonical data equals the input
        from gcgeo.isotropics import _ann_basis, _extension_of_eps

        rng = Rng(4)
        for _ in range(20):
            m = 3
            L = rng.isotropic(m, steps=2, complex_ok=False)
            delta = [list(r) for r in L.delta_basis]
            bform = _extension_of_eps(L)
            rebuilt = []
            for d in delta:
                cov = bform.contract(d)  # i_d B
                rebuilt.append(GenVector(m, d, [cov.coeff(1 << j) for j in range(m)]))
            for th in _ann_basis(delta, m):
                rebuilt.append(GenVector(m, [ZERO] * m, th))
            assert L.equals(canonical_form(rebuilt, m))


class TestPureSpinors:
    def test_trivial_lines(self):
        m = 3
        assert pure_spinor_line(tangent_space(m)) == MixedForm.one(m)
        assert pure_spinor_line(cotangent_space(m)) == MixedForm.top(m)

    def test_graph_of_b_line(self):
        L = graph_of_two_form(blade(2, 1, 2))
        assert pure_spinor_line(L) == MixedForm.one(2) - blade(2, 1, 2)

    def test_null_space_trivials(self):
        m = 3
        vecs, pure = null_space(MixedForm.one(m))
        assert pure and canonical_form(vecs, m).equals(tangent_space(m))

    def test_null_space_not_pure(self):
        m = 4
        vecs, pure = null_space(MixedForm.one(m) + MixedForm.top(m))
        assert not pure and len(vecs) == 0

    def test_symplectic_exponential_null_space(self):
        # phi = exp(i w), w = e12 + e34: null space is {X - i w(X)}
        m = 4
        w = blade(m, 1, 2) + blade(m, 3, 4)
        phi = w.scale(IUNIT).exp_wedge()
        L = max_isotropic_from_spinor(phi)
        wmap = map_from_two_form(w)
        for i in range(m):
            x = GenVector.basis_vector(m, i)
            expected = GenVector(
                m,
                x.vec,
                [(-IUNIT) * wmap[j][i] for j in range(m)],
            )
            assert L.contains(expected)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError, match="zero form"):
            null_space(MixedForm.zero(3))

    def test_lowest_degree_is_type_and_decomposable(self):
        rng = Rng(7)
        for _ in range(20):
            m = 4
            L = rng.isotropic(m)
            phi = pure_spinor_line(L)
            k = phi.min_degree()
            assert k == L.type
            omega = phi.degree_part(k)
            cols = [GenVector.basis_vector(m, i).act(omega) for i in range(m)]
            masks = sorted(set().union(*[set(c.terms) for c in cols]) | set())
            mat = [[c.coeff(mask) for c in cols] for mask in masks]
            kdim = len(linalg.kernel(mat)) if mat else m
            assert kdim == m - k


class TestRoundTripAndEquivariance:
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_round_trip(self, m):
        rng = Rng(m)
        for _ in range(15):
            L = rng.isotropic(m)
            phi = pure_spinor_line(L)
            assert max_isotropic_from_spinor(phi).equals(L)

    @pytest.mark.parametrize("kind", ["B", "beta", "gl"])
    def test_equivariance_single_blocks(self, kind):
        m = 3
        rng = Rng(ord(kind[0]))
        for _ in range(10):
            L = rng.isotropic(m)
            phi = pure_spinor_line(L)
            t = rng.block_transform(m, kinds=(kind,))
            if kind == "gl":
                # density twist needs a square determinant; det = 1 by build
                moved = t.spinor(phi)
            else:
                moved = t.spinor(phi)
            assert max_isotropic_from_spinor(moved).equals(transform(L, t))

    def test_transversality_iff_pairing(self):
        m = 4
        rng = Rng(17)
        hits = {True: 0, False: 0}
        for _ in range(40):
            l1 = rng.isotropic(m)
            l2 = rng.isotropic(m)
            pr = mukai_coeff(pure_spinor_line(l1), pure_spinor_line(l2))
            tv = transverse(l1, l2)
            hits[tv] += 1
            assert bool(pr) == tv
        assert hits[True] and hits[False], "test family must hit both outcomes"

    def test_parity_stable_under_all_transforms(self):
        m = 4
        rng = Rng(23)
        for _ in range(30):
            L = rng.isotropic(m)
            t = rng.block_transform(m)
            assert transform(L, t).parity == L.parity

    def test_b_transform_preserves_delta_and_shifts_eps(self):
        # exp(B) L(Delta, eps) = L(Delta, eps + i*B)
        m = 3
        rng = Rng(29)
        for _ in range(10):
            L = rng.isotropic(m, complex_ok=False)
            bmat = rng.antisym_map(m)
            t = BlockTransform(m, "B", bmat)
            moved = transform(L, t)
            assert [list(r) for r in moved.delta_basis] == [list(r) for r in L.delta_basis]
            for a, da in enumerate(L.delta_basis):
                for b, db in enumerate(L.delta_basis):
                    # B(d_a, d_b) = <map(d_a), d_b>
                    bval = sum(
                        (
                            sum((bmat[j][i] * da[i] for i in range(m)), ZERO) * db[j]
                            for j in range(m)
                        ),
                        ZERO,
                    )
                    assert moved.eps[a][b] == L.eps[a][b] + bval

    def test_beta_changes_type_by_even(self):
        m = 2
        L = cotangent_space(m)
        t = BlockTransform.from_bivector(blade(m, 1, 2, variance="mv"))
        assert transform(L, t).type == 0

    def test_gl_preserves_type(self):
        m = 3
        rng = Rng(31)
        for _ in range(10):
            L = rng.isotropic(m)
            t = BlockTransform(m, "gl", rng.gl_matrix(m))
            assert transform(L, t).type == L.type


class TestGraphOverCotangent:
    def test_cotangent_trivial(self):
        m = 3
        f, gamma, beta = graph_over_cotangent(cotangent_space(m))
        assert len(f) == m
        assert not beta
        assert all(not x for row in gamma for x in row)

    def test_tangent_trivial(self):
        m = 3
        f, gamma, beta = graph_over_cotangent(tangent_space(m))
        assert f == []
        assert dual_spinor_of(tangent_space(m)).proportional_to(MixedForm.one(m))

    def test_graph_of_bivector(self):
        m = 2
        L = graph_of_bivector(blade(m, 1, 2, variance="mv"))
        assert L.type == 0
        f, gamma, beta = graph_over_cotangent(L)
        assert gamma[0][1] == ONE

    def test_dual_spinor_same_line(self):
        rng = Rng(37)
        for m in (2, 3, 4):
            for _ in range(10):
                L = rng.isotropic(m)
                assert dual_spinor_of(L).proportional_to(pure_spinor_line(L))


class TestTensorProduct:
    def test_no_pairing_check(self, monkeypatch):
        # the pairing on L1 x L2 is the sum of the pairings on L1 and L2, so
        # the product's rows are read off unchecked, and canonical_form of
        # them, which checks them, gives the same data
        from gcgeo import isotropics

        rng = Rng(47)
        pairs = [(rng.isotropic(m), rng.isotropic(m)) for m in (2, 4, 6) for _ in range(4)]
        wants = [canonical_form(list(tensor_product(l1, l2).basis), l1.dim) for l1, l2 in pairs]

        def refuse(*_):
            raise AssertionError("the tensor product was checked for isotropy")

        monkeypatch.setattr(isotropics, "pairing_matrix", refuse)
        for (l1, l2), want in zip(pairs, wants):
            assert tensor_product(l1, l2) == want

    def test_cotangent_is_zero_element(self):
        m = 3
        rng = Rng(41)
        for _ in range(10):
            L = rng.isotropic(m)
            assert tensor_product(cotangent_space(m), L).equals(cotangent_space(m))
            assert tensor_product(L, cotangent_space(m)).equals(cotangent_space(m))

    def test_graphs_add(self):
        m = 3
        rng = Rng(43)
        for _ in range(10):
            b1 = rng.two_form(m)
            b2 = rng.two_form(m)
            got = tensor_product(graph_of_two_form(b1), graph_of_two_form(b2))
            assert got.equals(graph_of_two_form(b1 + b2))

    def test_foliation_idempotent(self):
        # Delta + Ann(Delta) for Delta = span(e1, e2) inside m=3
        m = 3
        basis = [
            GenVector.basis_vector(m, 0),
            GenVector.basis_vector(m, 1),
            GenVector.basis_covector(m, 2),
        ]
        L = canonical_form(basis, m)
        assert tensor_product(L, L).equals(L)

    def test_spinor_wedge_when_transverse_to_cotangent(self):
        # K_{L1 x L2} = K_{L1} ^ K_{L2} when L1 cap L2 cap V* = 0
        m = 3
        rng = Rng(47)
        for _ in range(10):
            l1 = graph_of_two_form(rng.two_form(m, complex_ok=True))
            l2 = graph_of_two_form(rng.two_form(m, complex_ok=True))
            wedge = pure_spinor_line(l1).wedge(pure_spinor_line(l2))
            prod = tensor_product(l1, l2)
            assert wedge.proportional_to(pure_spinor_line(prod))


class TestExtraSpecExamples:
    def test_gl_scaling_fixes_tangent(self):
        from gcgeo.clifford import BlockTransform
        from gcgeo.scalars import GaussRat
        from gcgeo import linalg

        m = 3
        g = linalg.mat_scale(linalg.identity(m), GaussRat(2))
        t = BlockTransform(m, "gl", g)
        assert transform(tangent_space(m), t).equals(tangent_space(m))

    def test_null_space_always_isotropic(self):
        rng = Rng(53)
        for _ in range(25):
            phi = rng.form(4, terms=3)
            if not phi:
                continue
            vecs, _ = null_space(phi)
            for u in vecs:
                for v in vecs:
                    assert not u.pair(v)


class TestChevalleySelfPairing:
    def test_self_pairing_vanishes(self):
        # L meets itself, so the pairing of a pure spinor line with itself is 0
        from gcgeo.forms import mukai_coeff

        for m in (2, 3, 4, 5):
            rng = Rng(300 + m)
            for _ in range(10):
                L = rng.isotropic(m)
                phi = pure_spinor_line(L)
                assert not mukai_coeff(phi, phi)


class TestSpinorLineType:
    def test_projective_equality_and_annihilator(self):
        from gcgeo.isotropics import SpinorLine, spinor_line_of
        from gcgeo.scalars import GaussRat

        rng = Rng(61)
        for _ in range(10):
            L = rng.isotropic(3)
            line = spinor_line_of(L)
            scaled = SpinorLine(line.generator.scale(GaussRat(2, 5)))
            assert line.equals(scaled)
            assert line.annihilator().equals(L)

    def test_impure_generator_rejected(self):
        from gcgeo.isotropics import SpinorLine

        with pytest.raises(NotPure):
            SpinorLine(MixedForm.one(4) + MixedForm.top(4))

    def test_real_predicate(self):
        from gcgeo.scalars import IUNIT

        assert tangent_space(3).is_real()
        L = transform(
            tangent_space(2),
            __import__("gcgeo.clifford", fromlist=["BlockTransform"]).BlockTransform(
                2, "B", [[ZERO, IUNIT], [-IUNIT, ZERO]]
            ),
        )
        assert not L.is_real()


class TestTensorProductMore:
    def test_associativity(self):
        rng = Rng(71)
        for m in (2, 3):
            for _ in range(8):
                l1 = rng.isotropic(m)
                l2 = rng.isotropic(m)
                l3 = rng.isotropic(m)
                left = tensor_product(tensor_product(l1, l2), l3)
                right = tensor_product(l1, tensor_product(l2, l3))
                assert left.equals(right)

    def test_b_field_compatibility(self):
        # e^{B1} L1 x e^{B2} L2 = e^{B1 + B2} (L1 x L2)
        from gcgeo.clifford import BlockTransform

        rng = Rng(73)
        m = 3
        for _ in range(8):
            l1 = rng.isotropic(m)
            l2 = rng.isotropic(m)
            b1 = rng.antisym_map(m)
            b2 = rng.antisym_map(m)
            t1 = BlockTransform(m, "B", b1)
            t2 = BlockTransform(m, "B", b2)
            b12 = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)]
            t12 = BlockTransform(m, "B", b12)
            lhs = tensor_product(transform(l1, t1), transform(l2, t2))
            rhs = transform(tensor_product(l1, l2), t12)
            assert lhs.equals(rhs)


def null_space_matrix(phi):
    """The dense 2^m x 2m matrix of v -> v . phi in the basis e_1..e_m, e^1..e^m."""
    dim = phi.dim
    cols = [GenVector.basis_vector(dim, i).act(phi) for i in range(dim)]
    cols += [GenVector.basis_covector(dim, i).act(phi) for i in range(dim)]
    return [[col.coeff(mask) for col in cols] for mask in range(1 << dim)]


def dense_null_space(phi):
    """Reference: the kernel of null_space_matrix(phi)."""
    vectors = [GenVector.from_coords(v) for v in linalg.kernel(null_space_matrix(phi))]
    return vectors, len(vectors) == phi.dim


@st.composite
def spinor_like_forms(draw):
    """Pure spinors of random L, sparse forms, and forms missing degrees."""
    kind = draw(st.sampled_from(["pure", "pure+noise", "sparse", "gapped"]))
    rng = Rng(draw(st.integers(0, 10**6)))
    if kind.startswith("pure"):
        m = draw(st.integers(1, 6))
        phi = pure_spinor_line(rng.isotropic(m, steps=2))
        if kind == "pure+noise":
            phi = phi + rng.form(m, terms=draw(st.integers(1, 3)))
        return phi
    m = draw(st.integers(1, 8))
    degrees = set(range(m + 1))
    if kind == "gapped":
        degrees -= draw(st.sets(st.integers(0, m), min_size=1, max_size=m))
    masks = [mask for mask in range(1 << m) if mask.bit_count() in degrees]
    if not masks:
        masks = [0]
    chosen = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=10, unique=True))
    return MixedForm(m, {mask: draw(gauss_rats()) for mask in chosen})


class TestNullSpaceRows:
    @settings(max_examples=120, deadline=None)
    @given(spinor_like_forms())
    def test_matches_dense_construction(self, phi):
        if not phi:
            return
        vecs, pure = null_space(phi)
        want_vecs, want_pure = dense_null_space(phi)
        assert vecs == want_vecs and pure == want_pure

    def test_constant_poly_coefficients_are_read_as_constants(self):
        chart = Chart.real("x", "y")
        phi = MixedForm.one(2) - blade(2, 1, 2).scale(GaussRat(Fraction(1, 3), 1))
        lifted = MixedForm(2, {mask: chart.const(c) for mask, c in phi.terms.items()})
        assert null_space(lifted) == null_space(phi)

    def test_non_constant_poly_coefficient_is_refused(self):
        chart = Chart.real("x", "y")
        phi = MixedForm(2, {0: ONE, 0b11: chart.coord(0)})
        with pytest.raises(ValueError, match="is not constant"):
            null_space(phi)


def dense_generic_spinor(m, seed):
    """A B- then beta-transform of T with dense complex shears, and its spinor."""
    rng = random.Random(seed)

    def shear():
        out = linalg.zeros(m, m)
        for i in range(m):
            for j in range(i + 1, m):
                c = GaussRat(rng.choice([-2, -1, 1, 2]), rng.choice([-1, 0, 1]))
                out[i][j], out[j][i] = c, -c
        return out

    planted = tangent_space(m)
    for kind in ("B", "beta"):
        planted = transform(planted, BlockTransform(m, kind, shear()))
    return planted, pure_spinor_line(planted)


class TestNullSpaceAtM12:
    # a pure spinor is decided by its Pfaffians and 12 rows, pure + noise
    # by 2^11 rows over 24 columns: about 0.01 s and 0.1 s on a shared
    # 2-core machine, against the bound of 20 s
    BOUND_S = 20.0

    def test_dense_pure_spinor_gives_the_planted_space(self):
        planted, phi = dense_generic_spinor(12, 5)
        assert len(phi.terms) == 1 << 11
        start = time.perf_counter()
        got = max_isotropic_from_spinor(phi)
        assert time.perf_counter() - start < self.BOUND_S
        assert got.equals(planted)

    def test_pure_plus_noise_is_not_pure(self):
        _, pure = dense_generic_spinor(12, 6)
        phi = pure + Rng(6).form(12, terms=6)
        start = time.perf_counter()
        vecs, is_pure = null_space(phi)
        assert time.perf_counter() - start < self.BOUND_S
        assert not is_pure and len(vecs) < 12
        assert all(not v.act(phi) for v in vecs)


def reference_rows(phi):
    """The rows of v . phi = 0 over one lane, as `null_space` built them for every phi.

    One row {column: (a, b)} per blade that v . phi reaches: from the blade
    target ^ e_i of phi by contraction (column i) when i is not in target, by
    wedge (column m + i) when it is, negated when an odd number of the bits
    of target lie below i.
    """
    from gcgeo.scalars import as_gauss, lane

    m = phi.dim
    _, nums = lane([as_gauss(c) for c in phi.terms.values()])
    terms = dict(zip(phi.terms, nums))
    rows = []
    for target in sorted({mask ^ (1 << i) for mask in terms for i in range(m)}):
        row = {}
        odd = False
        for i in range(m):
            c = terms.get(target ^ (1 << i))
            if c is not None:
                row[m * bool(target >> i & 1) + i] = (-c[0], -c[1]) if odd else c
            odd ^= bool(target >> i & 1)
        rows.append(row)
    return rows


def reference_null_space(phi):
    vectors = [GenVector.from_coords(v)
               for v in linalg.integer_kernel(reference_rows(phi), 2 * phi.dim)]
    return vectors, len(vectors) == phi.dim


def typed_isotropic(m, k, rng, kinds):
    """span(e^1..e^k, e_(k+1)..e_m), of type k, moved by block transforms of the given kinds.

    B and GL keep the type; beta changes it by an even number.
    """
    iso = canonical_form(
        [GenVector.basis_covector(m, i) for i in range(k)]
        + [GenVector.basis_vector(m, i) for i in range(k, m)],
        m,
    )
    for kind in kinds:
        if kind == "gl":
            t = BlockTransform(m, "gl", rng.gl_matrix(m))
        else:
            t = BlockTransform(m, kind, rng.antisym_map(m, 1, True))
        iso = transform(iso, t)
    return iso


@contextmanager
def no_action_rows():
    """Fail if `null_space` builds a row of v . phi = 0 inside the block."""
    from gcgeo import isotropics

    def refuse(*_):
        raise AssertionError("a pure spinor took the row elimination")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isotropics, "_action_rows", refuse)
        yield


@st.composite
def flipped_pure_spinors(draw):
    """c . pure_spinor_line(L) for L of any type k = 0..m at m <= 8, moved by B, beta, GL."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(0, m))
    kinds = draw(st.lists(st.sampled_from(["B", "beta", "gl"]), max_size=3))
    iso = typed_isotropic(m, k, Rng(draw(st.integers(0, 10**6))), kinds)
    c = draw(gauss_rats().filter(bool))
    return iso, pure_spinor_line(iso).scale(c)


class TestPfaffianPurity:
    """`null_space` decides purity by the flip and the Pfaffian recursion."""

    @settings(max_examples=80, deadline=None)
    @given(flipped_pure_spinors())
    def test_pure_spinors_build_no_rows(self, case):
        iso, phi = case
        with no_action_rows():
            vecs, pure = null_space(phi)
        assert pure
        assert (vecs, pure) == dense_null_space(phi)
        assert canonical_form(vecs, phi.dim).equals(iso)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_every_type_with_a_beta_last(self, m):
        # I0 is nonempty whenever the type is, and GL and beta move its blade
        rng = Rng(40 + m)
        for k in range(m + 1):
            for kinds in (["gl"], ["B", "gl"], ["gl", "beta"], ["B", "beta", "gl"]):
                phi = pure_spinor_line(typed_isotropic(m, k, rng, kinds))
                with no_action_rows():
                    got = null_space(phi)
                assert got == dense_null_space(phi)

    def test_perturbed_top_coefficient_fails_at_the_last_pfaffian(self):
        # a dense spinor of type 0, plus a change of the top coefficient: no
        # other recursion reads it, so only the last one, at the top blade, fails
        from gcgeo import isotropics

        for m, seed in ((4, 1), (6, 2), (8, 3)):
            _, pure = dense_generic_spinor(m, seed)
            top = (1 << m) - 1
            assert 0 in pure.terms and top in pure.terms
            phi = pure + MixedForm(m, {top: GaussRat(1, 1)})
            assert isotropics._is_exp_two_form(isotropics._lane_terms(pure), m)
            assert not isotropics._is_exp_two_form(isotropics._lane_terms(phi), m)
            vecs, is_pure = null_space(phi)
            assert not is_pure
            assert (vecs, is_pure) == dense_null_space(phi)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_mixed_parity_is_not_pure(self, m):
        rng = Rng(70 + m)
        for k in range(m + 1):
            pure = pure_spinor_line(typed_isotropic(m, k, rng, ["B", "gl"]))
            odd = next(mask for mask in range(1 << m) if (mask.bit_count() + k) % 2)
            phi = pure + MixedForm(m, {odd: GaussRat(2, -1)})
            vecs, is_pure = null_space(phi)
            assert not is_pure
            assert (vecs, is_pure) == dense_null_space(phi)

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_perturbed_degree_four_with_a_degree_zero_part(self, m):
        rng = Rng(90 + m)
        pure = pure_spinor_line(typed_isotropic(m, 0, rng, ["B", "B"]))
        assert 0 in pure.terms
        for mask in {0b1111, 0b1111 << (m - 4)}:
            phi = pure + MixedForm(m, {mask: GaussRat(0, 3)})
            vecs, is_pure = null_space(phi)
            assert not is_pure
            assert (vecs, is_pure) == dense_null_space(phi)

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_types_at_m12_against_the_rows(self, k):
        m = 12
        iso = typed_isotropic(m, k, Rng(120 + k), ["B", "gl"])
        assert iso.type == k
        phi = pure_spinor_line(iso)
        want = reference_null_space(phi)
        assert want[1]
        with no_action_rows():
            assert null_space(phi) == want


class TestCanonicalDataOfASpinor:
    def test_no_pairing_check(self, monkeypatch):
        # the null space of a spinor is isotropic by the Clifford relation,
        # so max_isotropic_from_spinor reads its canonical data unchecked
        from gcgeo import isotropics

        rng = Rng(31)
        cases = []
        for m in range(1, 7):
            for k in range(m + 1):
                iso = typed_isotropic(m, k, rng, ["B", "beta", "gl"])
                phi = pure_spinor_line(iso)
                cases.append((iso, phi, canonical_form(null_space(phi)[0], m)))

        def refuse(*_):
            raise AssertionError("the null space was checked for isotropy")

        monkeypatch.setattr(isotropics, "pairing_matrix", refuse)
        for iso, phi, want in cases:
            got = max_isotropic_from_spinor(phi)
            assert got == want
            assert got.equals(iso)

    def test_not_pure_message(self):
        with pytest.raises(NotPure) as err:
            max_isotropic_from_spinor(MixedForm.one(4) + MixedForm.top(4))
        assert str(err.value) == "null space has dimension 0, expected 4"
        phi = pure_spinor_line(tangent_space(3)) + MixedForm.top(3)
        with pytest.raises(NotPure) as err:
            max_isotropic_from_spinor(phi)
        assert str(err.value) == f"null space has dimension {len(null_space(phi)[0])}, expected 3"
