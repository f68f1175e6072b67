"""Integer-lane GaussRat kernels against the per-entry loops they replace.

`MixedForm.wedge` (and so `exp_wedge`), `GenVector.pair`, `linalg.mat_mul`
and `linalg.mat_vec` add up products of GaussRat operands in plain ints and
normalise once per output entry.  The loops below are the term-by-term
versions they replaced, kept as references: results must be equal entry by
entry, with the same types and, for forms, the same blade order.  Operands
holding a Poly, or an int, must take the loop; `merge_sign`'s prefix-parity
table must agree with the bit loop it replaced.
"""

import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo import clifford, forms, linalg
from gcgeo.clifford import GenVector
from gcgeo.forms import MixedForm, merge_sign
from gcgeo.scalars import HALF, ONE, ZERO, GaussRat, Poly, add_term

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
def polys(draw):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return Poly(VARS, draw(st.dictionaries(exps, gauss_rats(), min_size=1, max_size=3)))


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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_poly_and_int_operands_take_the_loop(self, data):
        a, b, v = data.draw(matrix_pairs())
        if not (a and b and b[0]):
            return
        a = [with_polys(data.draw, row, share=0.3) for row in a]
        b[0][0] = 1
        v = with_polys(data.draw, v, share=0.3)
        with no_lane():
            same_matrix(linalg.mat_mul(a, b), mat_mul_loop(a, b))
            if not all(type(c) is GaussRat for row in a for c in row + v):
                same_entries(linalg.mat_vec(a, v), mat_vec_loop(a, v))
