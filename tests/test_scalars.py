import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcgeo import scalars
from gcgeo.scalars import (
    GaussRat,
    MismatchedVariables,
    NoExactSquareRoot,
    Poly,
    IUNIT,
    ONE,
    QuotientTooLarge,
    ZERO,
    sqrt_exact,
)

from conftest import gauss_rats


VARS = ("x", "y")


def P(**terms):
    """Polynomial in x, y from {'x': 1} style single-variable shorthands."""
    out = Poly.zero(VARS)
    for key, coeff in terms.items():
        e = [0, 0]
        for ch in key:
            if ch == "x":
                e[0] += 1
            elif ch == "y":
                e[1] += 1
        out = out + Poly(VARS, {tuple(e): GaussRat(coeff)})
    return out


class TestGaussRat:
    def test_spec_product(self):
        # (1/2 + i/2)(1 - i) = 1
        a = GaussRat(Fraction(1, 2), Fraction(1, 2))
        b = GaussRat(1, -1)
        assert a * b == ONE

    def test_lowest_terms_positive_denominator(self):
        g = GaussRat(Fraction(2, -4), Fraction(-6, 3))
        assert g.re == Fraction(-1, 2) and g.re.denominator == 2
        assert g.im == -2

    @given(gauss_rats(), gauss_rats(), gauss_rats())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(gauss_rats())
    @settings(max_examples=40, deadline=None)
    def test_field_inverse(self, a):
        if a:
            assert a * (ONE / a) == ONE

    @given(gauss_rats())
    @settings(max_examples=40, deadline=None)
    def test_conjugation(self, a):
        assert a.conj().conj() == a
        n = a * a.conj()
        assert n.im == 0 and n.re >= 0

    @given(
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(-360, 360).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_raw_is_lowest_terms(self, a, b, q):
        # (a + b i)/q with q > 0 and gcd(a, b, q) = 1, whatever the sign of q
        g = GaussRat._raw(a, b, q)
        ref = GaussRat(Fraction(a, q), Fraction(b, q))
        assert (g.a, g.b, g.q) == (ref.a, ref.b, ref.q)

    def test_sqrt_exact(self):
        assert sqrt_exact(GaussRat(Fraction(9, 4))) == GaussRat(Fraction(3, 2))
        assert sqrt_exact(GaussRat(-4)) == GaussRat(0, 2)
        assert sqrt_exact(GaussRat(0, 2)) ** 2 == GaussRat(0, 2)
        with pytest.raises(NoExactSquareRoot):
            sqrt_exact(GaussRat(2))
        with pytest.raises(NoExactSquareRoot):
            sqrt_exact(GaussRat(1, 1))


class TestPoly:
    def test_formal_derivative(self):
        # d/dx (x^2 y) = 2 x y
        p = P(xxy=1)
        assert p.diff("x") == P(xy=2)
        assert p.diff("y") == P(xx=1)

    def test_eval_substitution(self):
        # eval(x^2 + i y, x=2, y=3) = 4 + 3i
        p = P(xx=1) + P(y=1) * IUNIT
        v = p.eval({"x": GaussRat(2), "y": GaussRat(3)})
        assert v == GaussRat(4, 3)

    def test_mismatched_variables_rejected(self):
        q = Poly.var(("z",), "z")
        with pytest.raises(MismatchedVariables):
            P(x=1) + q
        with pytest.raises(MismatchedVariables):
            P(x=1) * q

    def test_no_zero_coefficients_stored(self):
        p = P(x=1) - P(x=1)
        assert p.terms == {}
        assert not p

    def test_constants_lift(self):
        p = P(x=1)
        assert (p + GaussRat(1)) - p == Poly.const(VARS, ONE)
        assert GaussRat(2) * p == p + p

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, a, b, k):
        p = P(x=a, yy=b) + Poly.const(VARS, GaussRat(k))
        q = P(xy=b, y=1)
        lhs = (p * q).diff("x")
        rhs = p.diff("x") * q + p * q.diff("x")
        assert lhs == rhs

    def test_subs_into_new_chart(self):
        p = P(xy=1)
        target = ("u",)
        u = Poly.var(target, "u")
        image = p.subs_into(target, {"x": u, "y": u * u})
        assert image == u ** 3

    def test_conj_is_coefficientwise(self):
        p = P(x=1) * IUNIT + P(y=2)
        assert p.conj() == P(x=1) * (-IUNIT) + P(y=2)

    def test_negative_power_raises(self):
        # a polynomial has no inverse; this loop used to run forever
        with pytest.raises(ValueError, match="negative power"):
            (P(x=1) + Poly.const(VARS, ONE)) ** -1
        with pytest.raises(ValueError):
            Poly.zero(VARS) ** -2

    def test_diff_by_unknown_name(self):
        with pytest.raises(MismatchedVariables, match="'z' is not a chart variable of"):
            P(x=1).diff("z")

    def test_diff_scales_by_the_exponent(self):
        c = GaussRat(Fraction(1, 6), Fraction(-1, 4))
        p = Poly(VARS, {(3, 1): c, (1, 0): c, (0, 2): c})
        assert p.diff("x").terms == {(2, 1): GaussRat(Fraction(1, 2), Fraction(-3, 4)), (0, 0): c}


# ---------------------------------------------------------------------------
# Poly arithmetic against sympy
# ---------------------------------------------------------------------------

TARGET = ("u", "v")


def assert_raw_invariants(p, vars=VARS):
    """What Poly._raw trusts: clean terms keyed by full-length exponent tuples."""
    assert isinstance(p, Poly)
    assert p.vars == tuple(vars) and isinstance(p.vars, tuple)
    for e, c in p.terms.items():
        assert isinstance(e, tuple) and len(e) == len(vars)
        assert all(isinstance(k, int) and k >= 0 for k in e)
        assert isinstance(c, GaussRat) and c


@st.composite
def polys(draw, vars=VARS, max_terms=4, max_exp=3):
    """Zero, constant and general polynomials, including zero coefficients."""
    kind = draw(st.sampled_from(["zero", "const", "general", "general"]))
    if kind == "zero":
        return Poly.zero(vars)
    if kind == "const":
        return Poly.const(vars, draw(gauss_rats()))
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return Poly(vars, draw(st.dictionaries(exps, gauss_rats(), max_size=max_terms)))


@st.composite
def divisors_and_exponents_off_the_lead(draw, max_exp=3):
    """(g, e): a non-constant g and an exponent e with e[i] < lead(g)[i] for some i."""
    exps = list(product(range(max_exp + 1), repeat=len(VARS)))  # lex order, constant first
    lead = draw(st.sampled_from(exps[1:]))
    below = st.sampled_from([t for t in exps if t < lead])
    tail = draw(st.dictionaries(below, gauss_rats(), max_size=3))
    g = Poly(VARS, {**tail, lead: draw(gauss_rats().map(lambda c: c or ONE))})
    i = draw(st.sampled_from([k for k, a in enumerate(lead) if a]))
    e = list(draw(st.sampled_from(exps)))
    e[i] = draw(st.integers(0, lead[i] - 1))
    return g, tuple(e)


def scalars_or_polys():
    """A right operand: a Poly, a GaussRat (zero included) or an int."""
    return st.one_of(polys(), gauss_rats(), st.sampled_from([ZERO, ONE]), st.integers(-2, 2))


class SympyOracle:
    """Poly, GaussRat and int operands as sympy expressions in real symbols."""

    def __init__(self):
        self.sp = pytest.importorskip("sympy")
        self.syms = {v: self.sp.Symbol(v, real=True) for v in VARS + TARGET}

    def expr(self, p):
        sp = self.sp
        if isinstance(p, int):
            return sp.Integer(p)
        if isinstance(p, GaussRat):
            return sp.Rational(p.a, p.q) + sp.I * sp.Rational(p.b, p.q)
        syms = [self.syms[v] for v in p.vars]
        return sp.Add(
            *[self.expr(c) * sp.Mul(*[s**k for s, k in zip(syms, e)]) for e, c in p.terms.items()]
        )

    def assert_equal(self, p, expected):
        assert self.sp.expand(self.expr(p) - expected) == 0


class TestPolyAgainstSympy:
    @given(polys(), scalars_or_polys())
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, p, q):
        oracle = SympyOracle()
        ep, eq = oracle.expr(p), oracle.expr(q)
        for result, expected in [
            (p + q, ep + eq),
            (q + p, eq + ep),
            (p - q, ep - eq),
            (q - p, eq - ep),
            (p * q, ep * eq),
            (q * p, eq * ep),
            (-p, -ep),
        ]:
            assert_raw_invariants(result)
            oracle.assert_equal(result, expected)

    @given(polys(max_terms=3, max_exp=2), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_power(self, p, n):
        oracle = SympyOracle()
        result = p**n
        assert_raw_invariants(result)
        oracle.assert_equal(result, oracle.expr(p) ** n)

    @given(polys(), st.sampled_from(VARS))
    @settings(max_examples=100, deadline=None)
    def test_diff_and_conj(self, p, name):
        oracle = SympyOracle()
        dp = p.diff(name)
        assert_raw_invariants(dp)
        oracle.assert_equal(dp, oracle.sp.diff(oracle.expr(p), oracle.syms[name]))
        cp = p.conj()
        assert_raw_invariants(cp)
        oracle.assert_equal(cp, oracle.sp.conjugate(oracle.expr(p)))

    @given(
        polys(max_terms=3, max_exp=2),
        polys(TARGET, max_terms=3, max_exp=2),
        st.one_of(polys(TARGET, max_terms=2, max_exp=2), gauss_rats()),
    )
    @settings(max_examples=60, deadline=None)
    def test_subs_into(self, p, img_x, img_y):
        oracle = SympyOracle()
        result = p.subs_into(TARGET, {"x": img_x, "y": img_y})
        assert_raw_invariants(result, TARGET)
        images = {oracle.syms["x"]: oracle.expr(img_x), oracle.syms["y"]: oracle.expr(img_y)}
        oracle.assert_equal(result, oracle.expr(p).subs(images, simultaneous=True))

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_constructors_keep_invariants(self, p):
        assert_raw_invariants(p)
        padded = Poly(list(VARS), {**p.terms, (4, 4): ZERO})
        assert_raw_invariants(padded)
        assert padded == p
        assert_raw_invariants(Poly.const(list(VARS), 0))
        assert_raw_invariants(Poly.var(list(VARS), "y"))
        assert_raw_invariants(Poly.zero(list(VARS)))

    @given(polys(), polys(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_divide(self, p, g, multiple):
        assume(g)
        if multiple:
            p = p * g
        oracle = SympyOracle()
        sp = oracle.sp
        q, r = sp.div(oracle.expr(p), oracle.expr(g), *(oracle.syms[v] for v in VARS))
        result = p.divide(g)
        assert (result is None) == (sp.expand(r) != 0)
        if result is not None:
            assert_raw_invariants(result)
            oracle.assert_equal(result, q)


class TestDivide:
    @given(polys(), polys())
    @settings(max_examples=100, deadline=None)
    def test_product_divided_by_a_factor(self, p, g):
        assume(g)
        q = (p * g).divide(g)
        assert_raw_invariants(q)
        assert q == p

    @given(polys(), divisors_and_exponents_off_the_lead(), gauss_rats().map(lambda c: c or ONE))
    @settings(max_examples=100, deadline=None)
    def test_term_off_the_leading_monomial(self, p, g_e, c):
        # the leading monomial is the lex-largest exponent tuple; a monomial
        # it does not divide is not divisible by g
        g, e = g_e
        assert (p * g + Poly(VARS, {e: c})).divide(g) is None

    def test_examples(self):
        x, y = P(x=1), P(y=1)
        assert (x * x - y * y).divide(x + y) == x - y
        assert (x * x + y).divide(x) is None
        half = P(x=Fraction(1, 2)) - P(y=Fraction(3, 2)) * IUNIT
        assert (x * IUNIT + 3 * y).divide(Poly.const(VARS, GaussRat(0, 2))) == half
        assert Poly.zero(VARS).divide(x + y) == Poly.zero(VARS)
        with pytest.raises(ZeroDivisionError):
            x.divide(Poly.zero(VARS))
        with pytest.raises(MismatchedVariables):
            x.divide(Poly.var(("z",), "z"))

    def test_quotient_cap(self, monkeypatch):
        # (x^n - 1) / (x - 1) has n quotient terms, 2n products with x - 1
        x = P(x=1)
        monkeypatch.setattr(scalars, "DIVIDE_CAP", 8)
        assert (x ** 4 - ONE).divide(x - ONE) == x ** 3 + x ** 2 + x + ONE
        with pytest.raises(QuotientTooLarge):
            (x ** 5 - ONE).divide(x - ONE)
        # a divisor that does not divide is refused at the cap as well
        with pytest.raises(QuotientTooLarge):
            (x ** 5).divide(x - ONE)
        assert (x ** 3 + P(y=1)).divide(x - ONE) is None
        assert issubclass(QuotientTooLarge, ValueError)

    def test_long_division_refused_in_bounded_time(self):
        # x^(2^20) / (x + 1) would step down through every power of x
        x, y = P(x=1), P(y=1)
        start = time.perf_counter()
        with pytest.raises(QuotientTooLarge):
            (x ** (1 << 20) * y).divide(x + ONE)
        assert time.perf_counter() - start < 30
        g = x + y + ONE
        assert (x ** 40 * g).divide(g) == x ** 40

    def test_constant_divisor(self):
        # a GaussRat divisor is exact division by a constant
        x, y = P(x=1), P(y=1)
        half = P(x=Fraction(1, 2)) - P(y=Fraction(3, 2)) * IUNIT
        q = (x * IUNIT + 3 * y).divide(GaussRat(0, 2))
        assert_raw_invariants(q)
        assert q == half
        assert x.divide(GaussRat(2)) == P(x=Fraction(1, 2))
        assert Poly.zero(VARS).divide(GaussRat(3)) == Poly.zero(VARS)
        for p in (x, Poly.zero(VARS)):
            with pytest.raises(ZeroDivisionError):
                p.divide(ZERO)
