"""Poly's storage, gaussian integers over one denominator, against oracles.

Random polynomials over one to three variables, with coefficients whose
denominators include 1, 2, 3, 6 and about 10^6, are checked against sympy
`expand`, against the term-by-term GaussRat arithmetic kept here as a
reference, and against the normal form: q > 0, gcd(q, every integer) = 1,
and q = 1 for zero.
"""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcgeo.linalg import mat_mul
from gcgeo.scalars import (
    MAX_EXPONENT, ONE, ExponentOverflow, GaussRat, Poly, ZERO, pack, poly_lane, unpack,
)

sp = pytest.importorskip("sympy")

VARSETS = [("x",), ("x", "y"), ("x", "y", "z")]
DENOMS = [1, 2, 3, 6, 10**6, 999_983]
SYMS = {v: sp.Symbol(v, real=True) for v in ("x", "y", "z")}
ORACLE = settings(derandomize=True, max_examples=80, deadline=None)


@st.composite
def coeffs(draw):
    """A gaussian rational with a drawn denominator per part, zero included."""
    nums = st.one_of(st.integers(-12, 12), st.integers(-(10**7), 10**7))
    re = Fraction(draw(nums), draw(st.sampled_from(DENOMS)))
    im = Fraction(draw(nums), draw(st.sampled_from(DENOMS))) if draw(st.booleans()) else 0
    return GaussRat(re, im)


def polys(vars, max_terms=4, exponent=st.integers(0, 3)):
    exps = st.tuples(*[exponent] * len(vars))
    return st.dictionaries(exps, coeffs(), max_size=max_terms).map(lambda t: Poly(vars, t))


@st.composite
def poly_pair(draw, max_terms=4, exponent=st.integers(0, 3)):
    vars = draw(st.sampled_from(VARSETS))
    return vars, draw(polys(vars, max_terms, exponent)), draw(polys(vars, max_terms, exponent))


def gauss_expr(g):
    return sp.Rational(g.a, g.q) + sp.I * sp.Rational(g.b, g.q)


def expr(p):
    """p as a sympy expression, read off its integers."""
    q, nums = poly_lane(p)
    syms = [SYMS[v] for v in p.vars]
    return sp.Add(*[
        (sp.Rational(a, q) + sp.I * sp.Rational(b, q))
        * sp.Mul(*[s**k for s, k in zip(syms, unpack(e, len(p.vars)))])
        for e, (a, b) in nums.items()
    ])


def same(p, expected):
    assert sp.expand(expr(p) - expected) == 0


def assert_normal(p):
    q, nums = poly_lane(p)
    assert q > 0
    assert gcd(q, *(z for ab in nums.values() for z in ab)) == 1
    assert all(a or b for a, b in nums.values())
    assert all(type(e) is int and pack(unpack(e, len(p.vars)), len(p.vars)) == e for e in nums)
    if not nums:
        assert q == 1


# -- term-by-term reference: the arithmetic of {exponent: GaussRat} maps ------

def ref_add(s, t, sign=1):
    out = dict(s)
    for e, c in t.items():
        out[e] = out.get(e, ZERO) + c * sign
    return {e: c for e, c in out.items() if c}


def ref_mul(s, t):
    out = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_diff(s, i):
    return {
        e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in s.items() if e[i]
    }


class TestAgainstSympy:
    @given(poly_pair())
    @ORACLE
    def test_ring_operations(self, pq):
        _, p, q = pq
        ep, eq = expr(p), expr(q)
        for result, expected in [
            (p + q, ep + eq), (p - q, ep - eq), (p * q, ep * eq), (-p, -ep),
            (p.conj(), sp.conjugate(ep)),
        ]:
            assert_normal(result)
            same(result, expected)

    @given(poly_pair())
    @ORACLE
    def test_diff(self, pq):
        vars, p, _ = pq
        for v in vars:
            dp = p.diff(v)
            assert_normal(dp)
            same(dp, sp.diff(expr(p), SYMS[v]))

    @given(poly_pair(max_terms=3, exponent=st.integers(0, 2)), st.integers(0, 3))
    @ORACLE
    def test_power(self, pq, n):
        _, p, _ = pq
        assert_normal(p**n)
        same(p**n, sp.expand(expr(p) ** n))

    @given(poly_pair(), st.lists(coeffs(), min_size=3, max_size=3))
    @ORACLE
    def test_eval(self, pq, coords):
        vars, p, _ = pq
        point = dict(zip(vars, coords))
        value = sp.expand(expr(p).subs({SYMS[v]: gauss_expr(c) for v, c in point.items()}))
        assert gauss_expr(p.eval(point)) == value

    @given(poly_pair())
    @ORACLE
    def test_divide_a_product(self, pq):
        _, p, g = pq
        assume(g)
        quotient = (p * g).divide(g)
        assert_normal(quotient)
        assert quotient == p
        same(quotient, expr(p))


class TestNormalForm:
    @given(poly_pair())
    @ORACLE
    def test_built_two_ways_equal(self, pq):
        vars, p, q = pq
        prod = p * q
        for other in (q * p, Poly(vars, prod.terms), Poly(list(vars), dict(prod.terms)),
                      (p + q) * q - q * q, pickle.loads(pickle.dumps(prod))):
            assert other == prod
            assert poly_lane(other) == poly_lane(prod)
        assert (p + q) - q == p and poly_lane((p + q) - q) == poly_lane(p)

    @given(poly_pair(), coeffs())
    @ORACLE
    def test_constants_meet_polys(self, pq, c):
        vars, p, _ = pq
        for result, terms in [
            (p + c, ref_add(p.terms, Poly.const(vars, c).terms)),
            (c - p, ref_add(Poly.const(vars, c).terms, p.terms, -1)),
            (c * p, {e: x * c for e, x in p.terms.items() if x * c}),
        ]:
            assert_normal(result)
            assert result.terms == terms
        if c:
            assert_normal(p.divide(c))
            assert p.divide(c).terms == {e: x / c for e, x in p.terms.items()}
        const = Poly.const(vars, c)
        assert const == c and const.const_value() == c and const.is_const

    def test_zero_has_denominator_one(self):
        x = Poly.var(("x",), "x")
        half = x * GaussRat(Fraction(1, 2))
        for zero in (half - half, half * 0, Poly(("x",), {(1,): ZERO}), half.diff("x").diff("x")):
            assert poly_lane(zero) == (1, {})
            assert zero == Poly.zero(("x",))


class TestTermsView:
    @given(poly_pair())
    @ORACLE
    def test_terms_match_the_term_by_term_arithmetic(self, pq):
        vars, p, q = pq
        s, t = dict(p.terms), dict(q.terms)
        assert (p + q).terms == ref_add(s, t)
        assert (p - q).terms == ref_add(s, t, -1)
        assert (p * q).terms == ref_mul(s, t)
        assert (-p).terms == {e: -c for e, c in s.items()}
        assert p.conj().terms == {e: c.conj() for e, c in s.items()}
        for i, v in enumerate(vars):
            assert p.diff(v).terms == ref_diff(s, i)

    @given(poly_pair())
    @ORACLE
    def test_terms_are_built_once_and_pickle(self, pq):
        _, p, _ = pq
        fresh = pickle.loads(pickle.dumps(p))
        view = p.terms
        assert p.terms is view
        assert all(type(c) is GaussRat and c for c in view.values())
        again = pickle.loads(pickle.dumps(p))
        assert again == p == fresh and again.terms == view == fresh.terms


# -- packed exponents: every field up to MAX_EXPONENT -------------------------

WIDE = st.one_of(
    st.integers(0, 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT), st.integers(0, MAX_EXPONENT)
)
UNITS = [GaussRat(0), GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)]


def ref_eval(s, point):
    out = ZERO
    for e, c in s.items():
        for y, k in zip(point, e):
            c = c * y**k
        out = out + c
    return out


class TestPackedExponents:
    @given(poly_pair(exponent=WIDE), st.lists(st.sampled_from(UNITS), min_size=3, max_size=3))
    @ORACLE
    def test_against_the_term_by_term_reference(self, pq, coords):
        vars, p, q = pq
        s, t = dict(p.terms), dict(q.terms)
        for result, terms in [(p + q, ref_add(s, t)), (p - q, ref_add(s, t, -1))]:
            assert_normal(result)
            assert result.terms == terms
        prod = ref_mul(s, t)
        if any(k > MAX_EXPONENT for e in prod for k in e):
            with pytest.raises(ExponentOverflow):
                p * q
        else:
            assert_normal(p * q)
            assert (p * q).terms == prod
            if q:
                # dividing anything else can take about MAX_EXPONENT steps
                assert (p * q).divide(q) == p
        for i, v in enumerate(vars):
            assert_normal(p.diff(v))
            assert p.diff(v).terms == ref_diff(s, i)
        point = coords[: len(vars)]
        assert p.eval(dict(zip(vars, point))) == ref_eval(s, point)
        assert p.total_degree() == max((sum(e) for e in s), default=0)
        assert p.is_const == all(not any(e) for e in s)
        again = pickle.loads(pickle.dumps(p))
        assert again == p and poly_lane(again) == poly_lane(p) and again.terms == s

    def test_int_order_is_lex_order(self):
        es = [(0, MAX_EXPONENT, 5), (1, 0, 0), (0, 0, MAX_EXPONENT), (1, 0, 1), (0, 1, 0)]
        assert sorted(es, key=lambda e: pack(e, 3)) == sorted(es)
        assert [unpack(pack(e, 3), 3) for e in es] == es
        assert pack((0, 0, 0), 3) == 0 and unpack(0, 2) == (0, 0)


class TestExponentOverflow:
    def test_a_product_past_the_width_raises(self):
        for vars in VARSETS:
            n = len(vars)
            for i, v in enumerate(vars):
                top = Poly(vars, {tuple(MAX_EXPONENT if j == i else 0 for j in range(n)): 1})
                x = Poly.var(vars, v)
                assert (top * 1).diff(v).diff(v).total_degree() == MAX_EXPONENT - 2
                # a monomial factor, a general product and a power
                for product in (lambda: top * x, lambda: (top + 1) * (x + 1),
                                lambda: (x ** (1 << 30)) ** 2):
                    with pytest.raises(ExponentOverflow):
                        product()

    def test_no_field_carries_into_the_next(self):
        # y^MAX * y may not read back as x * y^0; every other field stays exact
        vars = ("x", "y", "z")
        top = Poly(vars, {(2, MAX_EXPONENT, 3): 1})
        with pytest.raises(ExponentOverflow):
            top * Poly.var(vars, "y")
        assert (top * Poly.var(vars, "x") * Poly.var(vars, "z")).terms == {
            (3, MAX_EXPONENT, 4): ONE
        }

    def test_a_matrix_product_past_the_width_raises(self):
        vars = ("x", "y")
        top = Poly(vars, {(MAX_EXPONENT, 0): 1, (0, 0): 1})
        x = Poly.var(vars, "x") + 2
        with pytest.raises(ExponentOverflow):
            mat_mul([[top, GaussRat(1)]], [[x], [GaussRat(3)]])
        assert mat_mul([[top]], [[Poly.var(vars, "y")]]) == [[top * Poly.var(vars, "y")]]

    @pytest.mark.parametrize(
        "e,error", [((MAX_EXPONENT + 1, 0), ExponentOverflow), ((-1, 0), ValueError),
                    ((1,), ValueError)],
    )
    def test_unpackable_exponents_are_refused(self, e, error):
        with pytest.raises(error):
            Poly(("x", "y"), {e: 1})
