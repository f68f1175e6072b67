"""Integer-lane kernels against the per-entry loops they replace.

`MixedForm.wedge` (and so `exp_wedge`), `GenVector.pair`, `linalg.mat_mul`
and `linalg.mat_vec` add up products in plain ints and normalise once per
output entry.  The loops below are the term-by-term versions they replaced,
kept as references: results must be equal entry by entry, with the same
types and, for forms, the same blade order.  Wedges and pairings holding a
Poly must take the loop.  Matrix products run GaussRat and Poly entries in
one kernel, which does no per-entry Poly arithmetic.  `linalg.eval_matrix`
and `Poly.eval` must give the term-by-term value, `eval_matrix` without
calling `eval`.  `merge_sign`'s prefix-parity table must agree with the bit
loop it replaced.
"""

import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from gcgeo import clifford, forms, linalg
from gcgeo.clifford import GenVector
from gcgeo.forms import MixedForm, merge_sign
from gcgeo.scalars import HALF, ONE, ZERO, GaussRat, MismatchedVariables, Poly, add_term

from conftest import gauss_rats, wide_gauss_rats

VARS = ("x", "y")


# ---------------------------------------------------------------------------
# the per-entry loops
# ---------------------------------------------------------------------------

def merge_sign_loop(a, b):
    s = 0
    rem = a
    while rem:
        low = rem & -rem
        s += (b & (low - 1)).bit_count()
        rem ^= low
    return -1 if s & 1 else 1


def wedge_loop(f, g):
    out = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            if ma & mb:
                continue
            t = ca * cb
            if merge_sign_loop(ma, mb) < 0:
                t = -t
            add_term(out, ma | mb, t)
    return MixedForm(f.dim, out, f.variance)


def exp_wedge_loop(a):
    acc = cur = MixedForm.one(a.dim, a.variance)
    k = 1
    while True:
        cur = wedge_loop(cur, a)
        cur = MixedForm(a.dim, {m: c * GaussRat(Fraction(1, k)) for m, c in cur.terms.items()})
        if not cur:
            return acc
        out = dict(acc.terms)
        for m, c in cur.terms.items():
            add_term(out, m, c)
        acc = MixedForm(a.dim, out, a.variance)
        k += 1


def pair_loop(u, v):
    acc = None
    for a, b in zip(u.covec, v.vec):
        t = a * b
        acc = t if acc is None else acc + t
    for a, b in zip(v.covec, u.vec):
        acc = acc + a * b
    return HALF * acc


def mat_mul_loop(a, b):
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = []
    for row in a:
        acc = [None] * cb
        for k in range(rb):
            x = row[k]
            if not x:
                continue
            for j in range(cb):
                y = b[k][j]
                if not y:
                    continue
                t = x * y
                acc[j] = t if acc[j] is None else acc[j] + t
        out.append([ZERO if v is None else v for v in acc])
    return out


def mat_vec_loop(a, v):
    out = []
    for row in a:
        s = None
        for x, y in zip(row, v):
            if not x or not y:
                continue
            t = x * y
            s = t if s is None else s + t
        out.append(ZERO if s is None else s)
    return out


# ---------------------------------------------------------------------------
# comparisons and strategies
# ---------------------------------------------------------------------------

def same_form(f, g):
    """Equal blades in equal order, equal coefficients of equal types."""
    assert (f.dim, f.variance) == (g.dim, g.variance)
    assert list(f.terms) == list(g.terms)
    for m, c in f.terms.items():
        assert c == g.terms[m] and type(c) is type(g.terms[m]) and c
        assert 0 <= m < 1 << f.dim


def same_entries(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x == y and type(x) is type(y)


def same_matrix(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        same_entries(ra, rb)


def entries(wide):
    values = wide_gauss_rats() if wide else gauss_rats()
    return st.one_of(st.just(ZERO), values)


@st.composite
def form_pairs(draw, wide=False):
    dim = draw(st.integers(1, 6))
    variance = draw(st.sampled_from(["form", "mv"]))
    masks = st.integers(0, (1 << dim) - 1)
    terms = [draw(st.dictionaries(masks, entries(wide), max_size=10)) for _ in range(2)]
    return tuple(MixedForm(dim, t, variance) for t in terms)


@st.composite
def even_forms(draw, wide=False):
    dim = draw(st.integers(2, 6))
    masks = st.sampled_from([m for m in range(1 << dim) if m.bit_count() % 2 == 0 and m])
    return MixedForm(dim, draw(st.dictionaries(masks, entries(wide), max_size=6)))


@st.composite
def vector_pairs(draw, wide=False):
    dim = draw(st.integers(1, 6))
    comps = st.lists(entries(wide), min_size=dim, max_size=dim)
    return tuple(GenVector(dim, draw(comps), draw(comps)) for _ in range(2))


@st.composite
def matrix_pairs(draw, wide=False):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a = [draw(st.lists(entries(wide), min_size=k, max_size=k)) for _ in range(r)]
    b = [draw(st.lists(entries(wide), min_size=c, max_size=c)) for _ in range(k)]
    v = draw(st.lists(entries(wide), min_size=k, max_size=k))
    return a, b, v


@st.composite
def polys(draw, den=2):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return Poly(VARS, draw(st.dictionaries(exps, gauss_rats(den=den), min_size=1, max_size=3)))


@st.composite
def poly_matrix_pairs(draw):
    """a, b and v over a pool of values and their negatives.

    The pool holds the GaussRat and Poly zeros, a GaussRat, a constant Poly
    and two Polys, with denominators up to 6, so sums of products often
    cancel and rows mix denominators.
    """
    pool = [
        ZERO, Poly.zero(VARS), draw(gauss_rats(den=6)),
        Poly.const(VARS, draw(gauss_rats(den=6))), draw(polys(6)), draw(polys(6)),
    ]
    values = st.sampled_from(pool + [-x for x in pool])
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = [draw(st.lists(values, min_size=k, max_size=k)) for _ in range(r)]
    b = [draw(st.lists(values, min_size=c, max_size=c)) for _ in range(k)]
    v = draw(st.lists(values, min_size=k, max_size=k))
    return a, b, v


def poly_eval_loop(p, point):
    """p at point, term by term in GaussRat arithmetic."""
    acc = ZERO
    for e, c in p.terms.items():
        for v, k in zip(p.vars, e):
            c = c * point[v] ** k
        acc = acc + c
    return acc


def eval_loop(m, point):
    return [[poly_eval_loop(x, point) if isinstance(x, Poly) else x for x in row] for row in m]


def with_polys(draw, values, share=0.5):
    """values with about `share` of them replaced by drawn polys."""
    return [draw(polys()) if draw(st.floats(0, 1)) < share else x for x in values]


def _fail(*_):
    raise AssertionError("the integer lane ran on a non-GaussRat operand")


@contextmanager
def no_lane():
    """Make every use of the integer lane fail, so only the loops can run."""
    with ExitStack() as stack:
        for mod in (forms, clifford, linalg):
            stack.enter_context(patch.object(mod, "lane", _fail))
        yield


def _poly_arithmetic(*_):
    raise AssertionError("a matrix kernel did per-entry Poly arithmetic")


@contextmanager
def no_poly_arithmetic():
    """Make Poly products, sums and evaluation fail, so only lanes can run."""
    with ExitStack() as stack:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "eval"):
            stack.enter_context(patch.object(Poly, name, _poly_arithmetic))
        yield


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestMergeSign:
    def test_exhaustive_below_64(self):
        for a in range(64):
            for b in range(64):
                assert merge_sign(a, b) == merge_sign_loop(a, b)

    def test_random_masks_below_4096(self):
        r = random.Random(12)
        for _ in range(20000):
            a, b = r.randrange(1 << 12), r.randrange(1 << 12)
            assert merge_sign(a, b) == merge_sign_loop(a, b)


class TestRaw:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-12, 12).filter(bool))
    def test_lowest_terms(self, a, b, q):
        g, h = GaussRat._raw(a, b, q), GaussRat(Fraction(a, q), Fraction(b, q))
        assert (g.a, g.b, g.q) == (h.a, h.b, h.q)


class TestWedge:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(form_pairs(), form_pairs(wide=True)))
    def test_matches_loop(self, fg):
        f, g = fg
        same_form(f.wedge(g), wedge_loop(f, g))

    def test_zero_and_empty(self):
        f = MixedForm(3, {1: GaussRat(2), 6: GaussRat(0, 1)})
        empty = MixedForm.zero(3)
        same_form(f.wedge(empty), empty)
        same_form(empty.wedge(f), empty)
        same_form(f.wedge(f.scale(GaussRat(-3))), wedge_loop(f, f.scale(GaussRat(-3))))

    def test_cancellation_keeps_the_loop_order(self):
        # e1 ^ e2 and e2 ^ e1 cancel the blade e1e2, and 1 ^ e1e2 brings it
        # back last, so it moves behind the blades e2 and e1
        f = MixedForm(2, {1: ONE, 2: ONE, 0: ONE})
        g = MixedForm(2, {2: ONE, 1: ONE, 3: ONE})
        assert list(f.wedge(g).terms) == [2, 1, 3]
        same_form(f.wedge(g), wedge_loop(f, g))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(even_forms(), even_forms(wide=True)))
    def test_exp_wedge_matches_loop(self, a):
        same_form(a.exp_wedge(), exp_wedge_loop(a))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_poly_operands_take_the_loop(self, data):
        f, g = data.draw(form_pairs())
        f, g = (
            MixedForm(h.dim, dict(zip(h.terms, with_polys(data.draw, h.terms.values()))), h.variance)
            for h in (f, g)
        )
        if all(type(c) is GaussRat for c in (*f.terms.values(), *g.terms.values())):
            return
        with no_lane():
            same_form(f.wedge(g), wedge_loop(f, g))


class TestPair:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(vector_pairs(), vector_pairs(wide=True)))
    def test_matches_loop(self, uv):
        u, v = uv
        for x, y in ((u, v), (v, u), (u, u)):
            same_entries([x.pair(y)], [pair_loop(x, y)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_poly_operands_take_the_loop(self, data):
        u, v = data.draw(vector_pairs())
        u = GenVector(u.dim, with_polys(data.draw, u.vec), u.covec)
        v = GenVector(v.dim, v.vec, with_polys(data.draw, v.covec, share=0.2))
        if all(type(c) is GaussRat for c in u.coords() + v.coords()):
            return
        with no_lane():
            same_entries([u.pair(v), v.pair(u)], [pair_loop(u, v), pair_loop(v, u)])


class TestMatrixProducts:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(matrix_pairs(), matrix_pairs(wide=True)))
    def test_matches_loop(self, abv):
        a, b, v = abv
        same_matrix(linalg.mat_mul(a, b), mat_mul_loop(a, b))
        same_entries(linalg.mat_vec(a, v), mat_vec_loop(a, v))

    def test_empty_and_zero(self):
        assert linalg.mat_mul([], []) == [] and linalg.mat_vec([], []) == []
        assert linalg.mat_mul([[], []], []) == [[], []]
        assert linalg.mat_mul([[ONE, ONE]], [[], []]) == [[]]
        z = linalg.zeros(3, 3)
        same_matrix(linalg.mat_mul(z, linalg.identity(3)), z)
        same_entries(linalg.mat_vec(z, [ONE, ONE, ONE]), [ZERO] * 3)

    def test_inner_dimensions_must_agree(self):
        with pytest.raises(ValueError):
            linalg.mat_mul([[ONE, ONE, ONE]], [[ONE], [ONE]])
        with pytest.raises(ValueError):
            linalg.mat_vec([[ONE, ONE, ONE]], [ONE])
        with pytest.raises(ValueError):
            linalg.mat_mul([[ONE, ONE]], [[ONE], [ONE, ONE]])
        # an empty right factor is a product with no columns
        assert linalg.mat_mul([[ONE, ONE]], []) == [[]]
        assert linalg.mat_vec([[], []], []) == [ZERO, ZERO]

    @settings(max_examples=200, deadline=None)
    @given(poly_matrix_pairs())
    def test_poly_entries_match_the_loop(self, abv):
        a, b, v = abv
        same_matrix(linalg.mat_mul(a, b), mat_mul_loop(a, b))
        same_entries(linalg.mat_vec(a, v), mat_vec_loop(a, v))

    def test_cancelling_constant_and_zero_entries(self):
        x, y = (Poly.var(VARS, n) for n in VARS)
        third, half = GaussRat(Fraction(1, 3)), GaussRat(Fraction(1, 2), 1)
        a = [[x, x, Poly.zero(VARS)], [third, -third, ZERO], [Poly.const(VARS, half), third, y]]
        b = [[y * half, third], [-y * half, third], [ONE, Poly.zero(VARS)]]
        out = linalg.mat_mul(a, b)
        same_matrix(out, mat_mul_loop(a, b))
        # a Poly sum that cancels stays the empty Poly, a GaussRat one a
        # GaussRat zero, and an entry no nonzero product reaches is ZERO
        assert type(out[0][0]) is Poly and not out[0][0]
        assert type(out[1][1]) is GaussRat and not out[1][1]
        assert linalg.mat_mul([[Poly.zero(VARS)]], [[x]]) == [[ZERO]]
        assert type(linalg.mat_mul([[Poly.zero(VARS)]], [[x]])[0][0]) is GaussRat

    def test_int_and_fraction_operands_read_as_gauss(self):
        x = Poly.var(VARS, "x")
        out = linalg.mat_mul([[1, Fraction(1, 2)], [x, 2]], [[2], [GaussRat(0, 1)]])
        same_matrix(out, [[GaussRat(2, Fraction(1, 2))], [x * 2 + GaussRat(0, 2)]])
        same_entries(linalg.mat_vec([[3, 0]], [Fraction(1, 3), 5]), [ONE])

    def test_polys_over_different_charts_do_not_mix(self):
        x, u = Poly.var(VARS, "x"), Poly.var(("u",), "u")
        with pytest.raises(MismatchedVariables):
            linalg.mat_mul([[x, ONE]], [[ONE], [u]])
        # all nonzero Polys of both factors share one chart, also when two
        # charts never meet in a product, as in this block-diagonal one
        block = [[x, ZERO], [ZERO, u]]
        with pytest.raises(MismatchedVariables):
            linalg.mat_mul(block, block)
        with pytest.raises(MismatchedVariables):
            linalg.mat_vec(block, [ONE, ZERO])
        # a zero Poly has no chart to clash with
        same_matrix(linalg.mat_mul([[x, Poly.zero(("u",))]], [[ONE], [ONE]]), [[x]])

    @settings(max_examples=100, deadline=None)
    @given(poly_matrix_pairs(), st.tuples(gauss_rats(den=6), gauss_rats(den=6)))
    def test_eval_matrix_matches_poly_eval(self, abv, xy):
        point = dict(zip(VARS, xy))
        for m in abv[:2]:
            want = eval_loop(m, point)
            same_matrix(linalg.eval_matrix(m, point), want)
            same_matrix([[x.eval(point) if isinstance(x, Poly) else x for x in r] for r in m], want)
        same_matrix(linalg.eval_matrix([[1, Fraction(1, 2)]], point), [[ONE, HALF]])
        if any(isinstance(x, Poly) for row in abv[0] for x in row):
            with pytest.raises(MismatchedVariables):
                linalg.eval_matrix(abv[0], {"x": ONE})

    @settings(max_examples=60, deadline=None)
    @given(poly_matrix_pairs(), st.tuples(gauss_rats(), gauss_rats()))
    def test_no_per_entry_poly_arithmetic(self, abv, xy):
        a, b, v = abv
        point = dict(zip(VARS, xy))
        rows = [r + r for r in b]
        swapped = linalg.transpose([r[len(r) // 2:] + r[:len(r) // 2] for r in rows])
        want = (
            mat_mul_loop(a, b), mat_vec_loop(a, v), mat_mul_loop(rows, swapped),
            eval_loop(a, point),
        )
        with no_poly_arithmetic():
            got = (
                linalg.mat_mul(a, b), linalg.mat_vec(a, v),
                clifford.pairing_matrix(rows, rows), linalg.eval_matrix(a, point),
            )
        for g, w in zip(got, want):
            same_matrix(g, w) if g and isinstance(g[0], list) else same_entries(g, w)
