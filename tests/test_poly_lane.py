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

from gcgeo.scalars import GaussRat, Poly, ZERO, poly_lane

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


def polys(vars, max_terms=4, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, coeffs(), max_size=max_terms).map(lambda t: Poly(vars, t))


@st.composite
def poly_pair(draw, max_terms=4, max_exp=3):
    vars = draw(st.sampled_from(VARSETS))
    return vars, draw(polys(vars, max_terms, max_exp)), draw(polys(vars, max_terms, max_exp))


def gauss_expr(g):
    return sp.Rational(g.a, g.q) + sp.I * sp.Rational(g.b, g.q)


def expr(p):
    """p as a sympy expression, read off its integers."""
    q, nums = poly_lane(p)
    syms = [SYMS[v] for v in p.vars]
    return sp.Add(*[
        (sp.Rational(a, q) + sp.I * sp.Rational(b, q)) * sp.Mul(*[s**k for s, k in zip(syms, e)])
        for e, (a, b) in nums.items()
    ])


def same(p, expected):
    assert sp.expand(expr(p) - expected) == 0


def assert_normal(p):
    q, nums = poly_lane(p)
    assert q > 0
    assert gcd(q, *(z for ab in nums.values() for z in ab)) == 1
    assert all(a or b for a, b in nums.values())
    assert all(isinstance(e, tuple) and len(e) == len(p.vars) for e in nums)
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

    @given(poly_pair(max_terms=3, max_exp=2), st.integers(0, 3))
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
