"""Exact linear algebra: the sparse-row elimination against independent oracles.

Matrices are drawn dense, sparse (at most 10 % fill), tall, wide, square,
with zero rows and columns, and empty; entries are small, or have
numerators up to 10^6 and denominators up to 50, so that the integer rows
of the elimination carry content to remove.  `rref` is compared with sympy and
with the plain dense Gauss-Jordan loop below; kernels, solves and inverses
are checked by their defining equations.  Tall systems, many combinations of
a few rows, and spinor null spaces are checked against the dense loop.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo import linalg
from gcgeo.clifford import GenVector
from gcgeo.forms import CapacityError, MixedForm
from gcgeo.isotropics import graph_of_two_form, max_isotropic_from_spinor, null_space, pure_spinor_line
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

    @settings(max_examples=60, deadline=None)
    @given(matrices(entries=st.builds(GaussRat, st.integers(-9, 9), st.integers(-9, 9))))
    def test_integer_rows(self, m):
        # gaussian-integer rows give the nonzero rows of the dense rref
        rows = [{j: (x.a, x.b) for j, x in enumerate(row) if x} for row in m]
        red, piv = linalg.rref(m)
        assert linalg.integer_rref(rows, ncols_of(m)) == (red[: len(piv)], piv)

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

    def test_cap_bounds_nullity_times_columns(self):
        m = [[ONE, ONE, ZERO]]
        assert len(linalg.kernel(m, cap=6)) == 2
        with pytest.raises(CapacityError, match="nullity 2 over 3 unknowns, 6 basis entries, above the cap 5"):
            linalg.kernel(m, cap=5)


@st.composite
def rows_of_known_rank(draw):
    """(rows, r): r independent rows and combinations of them, placed first, last or interleaved."""
    base = draw(matrices(entries=draw(st.sampled_from([gauss_rats(), wide_gauss_rats()]))))
    indep = []
    for row in base:
        if linalg.rank(indep + [row]) > len(indep):
            indep.append(row)
    r = len(indep)
    dep = []
    if r:
        coeffs = draw(matrices(rows=draw(st.integers(1, 4)), cols=r))
        dep = linalg.mat_mul(coeffs, indep)
    place = draw(st.sampled_from(["first", "last", "interleaved"]))
    if place == "first":
        rows = dep + indep
    elif place == "last":
        rows = indep + dep
    else:
        rows = [x for i in range(max(len(dep), r)) for x in dep[i : i + 1] + indep[i : i + 1]]
    return rows, r


class TestKnownRank:
    """A rank known by proof stops the elimination at that many pivots.

    The rows after the stop lie in the span of the pivot rows and the
    reduced form is unique, so the kernel basis is the same; no row after
    the stop is read.
    """

    @settings(max_examples=80, deadline=None)
    @given(rows_of_known_rank())
    def test_same_basis_as_without_rank(self, rows_r):
        rows, r = rows_r
        want = linalg.kernel(rows)
        assert linalg.kernel(rows, rank=r) == want
        assert linalg.kernel(dict_rows(rows), ncols_of(rows), rank=r) == want

    @settings(max_examples=40, deadline=None)
    @given(rows_of_known_rank())
    def test_rows_after_the_stop_are_not_read(self, rows_r):
        rows, r = rows_r
        if not r:
            return
        read = []

        def stream():
            for i, row in enumerate(dict_rows(rows)):
                read.append(i)
                yield row

        got = linalg.kernel(stream(), ncols_of(rows), rank=r)
        assert got == linalg.kernel(rows)
        assert linalg.rank([rows[i] for i in read]) == r
        assert linalg.rank([rows[i] for i in read[:-1]]) == r - 1


@st.composite
def low_rank_matrices(draw):
    """A product of an r x t and a t x c matrix, t below min(r, c): rank deficient."""
    r, c = draw(st.integers(2, 6)), draw(st.integers(2, 7))
    t = draw(st.integers(1, min(r, c) - 1))
    entries = draw(st.sampled_from([gauss_rats(), wide_gauss_rats()]))
    left = draw(matrices(rows=r, cols=t, entries=entries))
    return linalg.mat_mul(left, draw(matrices(rows=t, cols=c, entries=entries)))


def reversed_kernel(m):
    """The kernel of m eliminated with its columns reversed, each vector reversed back."""
    return [v[::-1] for v in reversed(linalg.kernel([row[::-1] for row in m]))]


class TestReversedKernel:
    """Eliminating with the columns reversed gives the kernel in reduced row echelon form.

    A vector of the reversed basis has a 1 at its free column f, 0 at the
    other free columns and its other nonzeros after f, so ordered by f the
    vectors are the unique reduced rows of the kernel; `gcs.eigenbundle`
    reads the canonical rows of L = ker(J - i) this way.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(matrices(), matrices(entries=wide_gauss_rats()), low_rank_matrices()))
    def test_is_the_rref_of_the_kernel_basis(self, m):
        ker = linalg.kernel(m)
        want = dense_rref(ker)[0][: len(ker)]
        assert reversed_kernel(m) == want
        assert want == linalg.rref(ker)[0][: len(ker)]


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


class TestIntegerSolve:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_solve_and_the_dense_loop(self, data):
        m = data.draw(st.one_of(matrices(), matrices(entries=wide_gauss_rats())))
        n = ncols_of(m)
        kind = data.draw(st.sampled_from(["any", "zero", "consistent"]))
        if kind == "any":
            b = [data.draw(gauss_rats()) for _ in m]
        elif kind == "zero":
            b = [ZERO] * len(m)
        else:
            b = mat_vec(m, [data.draw(gauss_rats()) for _ in range(n)])
        aug = [row + [y] for row, y in zip(m, b)]
        got = linalg.integer_solve([linalg._row(enumerate(r)) for r in aug], n)
        assert got == linalg.solve(m, b)
        red, piv = dense_rref(aug)
        if n in piv:
            assert got is None and kind == "any"
        else:
            want = [ZERO] * n
            for row, c in zip(red, piv):
                want[c] = row[n]
            assert got == want
        rows = [linalg._row(enumerate(r)) for r in aug]
        data.draw(st.randoms(use_true_random=False)).shuffle(rows)
        assert linalg.integer_solve(rows, n) == got

    def test_empty_and_free_systems(self):
        assert linalg.integer_solve([], 0) == []
        assert linalg.integer_solve([], 2) == [ZERO, ZERO]
        assert linalg.integer_solve([{}, {}], 3) == [ZERO] * 3
        assert linalg.integer_solve([{}, {2: (1, 0)}], 2) is None
        # 2 x0 + 2 x1 = 3i: x0 = 3i/2, x1 free
        assert linalg.integer_solve([{0: (2, 0), 1: (2, 0), 2: (0, 3)}], 2) == [
            GaussRat(0, Fraction(3, 2)), ZERO,
        ]


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


def kernel_from_rref(red, piv, ncols):
    """Reference: the kernel basis read off a reduced row echelon form."""
    out = []
    for f in (f for f in range(ncols) if f not in piv):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(red, piv):
            v[c] = -row[f]
        out.append(v)
    return out


# combination coefficients this large put entries above 2^200
HUGE = 2**205


@st.composite
def tall_systems(draw):
    """A few base rows and many gaussian-integer combinations of them.

    Most rows are dependent, more than twice as many as there are columns,
    so the elimination clears them against its pivot rows.  Some
    combinations take a coefficient above 2^205, which puts entries above
    2^200 into the rows that are cleared.
    """
    cols = draw(st.integers(1, 8))
    base = [[draw(gauss_rats()) for _ in range(cols)] for _ in range(draw(st.integers(1, 4)))]
    huge = draw(st.booleans())
    rows = list(base)
    for _ in range(draw(st.integers(2 * cols + 2, 2 * cols + 24))):
        coeffs = []
        for _ in base:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            if huge and draw(st.integers(0, 3)) == 0:
                a += HUGE * draw(st.sampled_from([-1, 1]))
            coeffs.append(GaussRat(a, b))
        rows.append([sum((k * r[j] for k, r in zip(coeffs, base)), ZERO) for j in range(cols)])
    rows = draw(st.permutations(rows))
    return rows


class TestTallSystems:
    """Systems with many more dependent rows than columns."""

    @settings(max_examples=60, deadline=None)
    @given(tall_systems())
    def test_rref_and_kernel_match_dense_loop(self, m):
        ncols = ncols_of(m)
        red, piv = dense_rref(m)
        assert linalg.rref(m) == (red, piv)
        want = kernel_from_rref(red, piv, ncols)
        assert linalg.kernel(m) == want
        assert linalg.kernel(dict_rows(m), ncols) == want

    def test_rows_longer_than_the_first(self):
        # dense rows read ncols off the first row; entries past it still count
        m = [[ONE, ZERO]] + [[ZERO, ZERO, ONE, ONE]] * 12 + [[ZERO, ZERO, ONE, GaussRat(2)]]
        assert linalg.rank(m) == 3


@pytest.mark.parametrize("seed", [0, 1])
def test_null_space_matrix_at_m8_matches_dense_loop(seed):
    rng = Rng(seed)
    pure = pure_spinor_line(rng.isotropic(8))
    for phi in (pure, pure + rng.form(8, terms=6)):
        m = null_space_matrix(phi)
        assert len(m) == 256
        assert linalg.rref(m) == dense_rref(m)


def dense_loop_null_space(phi):
    """Reference: the kernel of null_space_matrix(phi) by the dense loop."""
    red, piv = dense_rref(null_space_matrix(phi))
    return [GenVector.from_coords(v) for v in kernel_from_rref(red, piv, 2 * phi.dim)]


class TestNullSpaceLane:
    """`null_space` reads integer rows off one lane for all of phi."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_m10_matches_dense_loop(self, seed):
        rng = Rng(seed)
        pure = pure_spinor_line(rng.isotropic(10))
        noisy = pure + rng.form(10, terms=6)
        # dx1 ^ dx2 ^ psi with psi over the other coordinates is not pure,
        # and its null space is spanned by dx1 and dx2
        psi = MixedForm(10, {k << 2: c for k, c in rng.form(8, terms=12).terms.items()})
        wedged = MixedForm(10, {0b11: ONE}).wedge(psi)
        for phi, want_pure in ((pure, True), (noisy, False), (wedged, False)):
            vecs, is_pure = null_space(phi)
            assert vecs == dense_loop_null_space(phi)
            assert is_pure == want_pure
        assert len(null_space(wedged)[0]) == 2

    @pytest.mark.parametrize("m", [4, 6])
    def test_large_distinct_denominators(self, m):
        # each B_ij has two primes of its own as denominators, so the
        # coefficients of e^-B have many distinct denominators, and one lane
        # for all of phi is far from the lane of any one row
        primes = iter(p for p in range(9001, 10200, 2) if all(p % d for d in range(3, 101, 2)))
        b = MixedForm(m, {
            (1 << i) | (1 << j): GaussRat(Fraction(1, next(primes)), Fraction(1, next(primes)))
            for i in range(m) for j in range(i + 1, m)
        })
        planted = graph_of_two_form(b)
        pure = pure_spinor_line(planted)
        whole = lcm(*(c.q for c in pure.terms.values()))
        per_row = [lcm(*(x.q for x in row if x)) for row in null_space_matrix(pure) if any(row)]
        assert min(per_row) < whole and len(set(per_row)) > m
        noise = MixedForm(m, {3: GaussRat(Fraction(1, next(primes))), (1 << m) - 1: ONE})
        for phi in (pure, pure + noise):
            vecs, is_pure = null_space(phi)
            want = dense_loop_null_space(phi)
            assert vecs == want
            assert is_pure == (len(want) == m)
        assert max_isotropic_from_spinor(pure).equals(planted)
