"""Exact linear algebra: the sparse-row elimination against independent oracles.

Matrices are drawn dense, sparse (at most 10 % fill), tall, wide, square,
with zero rows and columns, and empty; entries are small, or have
numerators up to 10^6 and denominators up to 50, so that the integer rows
of the elimination carry content to remove.  `rref` is compared with sympy and
with the plain dense Gauss-Jordan loop below; kernels, solves and inverses
are checked by their defining equations.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo import linalg
from gcgeo.isotropics import pure_spinor_line
from gcgeo.randgen import Rng
from gcgeo.scalars import GaussRat, ONE, ZERO

from conftest import gauss_rats, wide_gauss_rats
from test_isotropics import null_space_matrix

SHAPES = {"square": (1, 1), "tall": (3, 1), "wide": (1, 3)}
FILL = {"dense": 100, "half": 50, "sparse": 10}


@st.composite
def matrices(draw, rows=None, cols=None, entries=gauss_rats()):
    """A GaussRat matrix as dense rows; `rows`/`cols` pin its shape."""
    if rows is None:
        kind = draw(st.sampled_from(sorted(SHAPES)))
        tall, wide = SHAPES[kind]
        base = draw(st.integers(0, 4))
        rows, cols = base * tall, base * wide
        if draw(st.booleans()):
            rows, cols = rows + draw(st.integers(0, 3)), cols + draw(st.integers(0, 3))
    fill = FILL[draw(st.sampled_from(sorted(FILL)))]
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    m = []
    for i in range(rows):
        row = []
        for j in range(cols):
            keep = i not in zero_rows and j not in zero_cols
            keep = keep and draw(st.integers(0, 99)) < fill
            row.append(draw(entries) if keep else ZERO)
        m.append(row)
    return m


def ncols_of(m):
    return len(m[0]) if m else 0


def dict_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def dense_rref(m):
    """Reference: Gauss-Jordan over dense rows, pivoting down each column."""
    a = [list(row) for row in m]
    piv = []
    r = 0
    for c in range(ncols_of(a)):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a, piv


def mat_vec(m, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in m]


class TestRref:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_matches_dense_loop(self, m):
        red, piv = linalg.rref(m)
        want_red, want_piv = dense_rref(m)
        assert piv == want_piv
        assert red == want_red
        assert all(type(x) is GaussRat for row in red for x in row)

    @settings(max_examples=30, deadline=None)
    @given(matrices())
    def test_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")

        def to_sympy(g):
            return sympy.Rational(g.a, g.q) + sympy.I * sympy.Rational(g.b, g.q)

        def to_gauss(e):
            re, im = e.as_real_imag()
            re, im = sympy.Rational(re), sympy.Rational(im)
            return GaussRat(Fraction(re.p, re.q), Fraction(im.p, im.q))

        red, piv = linalg.rref(m)
        want, want_piv = sympy.Matrix(len(m), ncols_of(m), [to_sympy(x) for r in m for x in r]).rref()
        assert piv == list(want_piv)
        assert red == [[to_gauss(want[i, j]) for j in range(ncols_of(m))] for i in range(len(m))]

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_row_order_does_not_matter(self, m, rnd):
        shuffled = list(m)
        rnd.shuffle(shuffled)
        assert linalg.rref(shuffled) == linalg.rref(m)

    def test_empty(self):
        assert linalg.rref([]) == ([], [])
        assert linalg.rref([[], []]) == ([[], []], [])
        assert linalg.rank([]) == 0
        assert linalg.kernel([]) == []
        assert linalg.solve([], []) == []


class TestKernel:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_kernel_vectors_and_count(self, m):
        ker = linalg.kernel(m)
        assert len(ker) == ncols_of(m) - linalg.rank(m)
        for v in ker:
            assert len(v) == ncols_of(m)
            assert not any(mat_vec(m, v))
        assert linalg.rank(ker) == len(ker)

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_dict_rows_agree(self, m):
        assert linalg.kernel(dict_rows(m), ncols_of(m)) == linalg.kernel(m)

    def test_no_rows_gives_identity(self):
        assert linalg.kernel([], 3) == linalg.identity(3)
        assert linalg.kernel([{}, {}], 2) == linalg.identity(2)


class TestSolve:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_none_exactly_when_inconsistent(self, data):
        m = data.draw(matrices())
        b = [data.draw(gauss_rats()) if data.draw(st.booleans()) else ZERO for _ in m]
        x = linalg.solve(m, b)
        aug = [row + [y] for row, y in zip(m, b)]
        consistent = linalg.rank(m) == linalg.rank(aug)
        assert (x is not None) == consistent
        if x is not None:
            assert len(x) == ncols_of(m)
            assert mat_vec(m, x) == b

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_dict_rows_agree(self, data):
        m = data.draw(matrices())
        b = [data.draw(gauss_rats()) for _ in m]
        assert linalg.solve(dict_rows(m), b, ncols_of(m)) == linalg.solve(m, b)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_solve_and_rank(self, data):
        m = data.draw(matrices())
        b = mat_vec(m, [data.draw(gauss_rats()) for _ in range(ncols_of(m))])
        x = linalg.solve(dict_rows(m), b, ncols_of(m))
        assert mat_vec(m, x) == b
        assert linalg.rank([row + [y] for row, y in zip(m, b)]) == linalg.rank(m)
        padded, padded_b = m + [[ZERO] * ncols_of(m)], b + [ONE]
        assert linalg.solve(padded, padded_b) is None
        assert linalg.rank(padded) == linalg.rank(m)
        assert linalg.rank([row + [y] for row, y in zip(padded, padded_b)]) == linalg.rank(m) + 1


class TestInverse:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: matrices(rows=n, cols=n)))
    def test_inverse_times_m_is_identity(self, m):
        n = len(m)
        if linalg.rank(m) < n:
            with pytest.raises(ValueError, match="singular"):
                linalg.inverse(m)
            assert not linalg.det(m)
            return
        inv = linalg.inverse(m)
        assert linalg.mat_mul(inv, m) == linalg.identity(n)
        assert linalg.mat_mul(m, inv) == linalg.identity(n)


class TestSpans:
    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_row_space_basis_spans_the_rows(self, m):
        basis = linalg.row_space_basis(m)
        assert len(basis) == linalg.rank(m)
        assert all(linalg.span_contains(basis, row) for row in m)
        assert linalg.span_equal(basis, m)


class TestWideEntries:
    """Large numerators and denominators up to 50, mostly complex pivots."""

    @settings(max_examples=60, deadline=None)
    @given(matrices(entries=wide_gauss_rats()))
    def test_rref_matches_dense_loop(self, m):
        assert linalg.rref(m) == dense_rref(m)

    @settings(max_examples=40, deadline=None)
    @given(matrices(entries=wide_gauss_rats()))
    def test_kernel_and_dict_rows(self, m):
        ker = linalg.kernel(m)
        assert len(ker) == ncols_of(m) - len(dense_rref(m)[1])
        assert all(not any(mat_vec(m, v)) for v in ker)
        assert linalg.kernel(dict_rows(m), ncols_of(m)) == ker

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_solve(self, data):
        m = data.draw(matrices(entries=wide_gauss_rats()))
        x = [data.draw(wide_gauss_rats()) for _ in range(ncols_of(m))]
        b = mat_vec(m, x)
        got = linalg.solve(m, b)
        assert linalg.rank(m) == len(dense_rref(m)[1])
        assert mat_vec(m, got) == b

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: matrices(rows=n, cols=n, entries=wide_gauss_rats())))
    def test_inverse(self, m):
        if len(dense_rref(m)[1]) < len(m):
            with pytest.raises(ValueError, match="singular"):
                linalg.inverse(m)
            return
        assert linalg.mat_mul(linalg.inverse(m), m) == linalg.identity(len(m))


@pytest.mark.parametrize("seed", [0, 1])
def test_null_space_matrix_at_m8_matches_dense_loop(seed):
    rng = Rng(seed)
    pure = pure_spinor_line(rng.isotropic(8))
    for phi in (pure, pure + rng.form(8, terms=6)):
        m = null_space_matrix(phi)
        assert len(m) == 256
        assert linalg.rref(m) == dense_rref(m)
