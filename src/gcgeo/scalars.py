"""Exact scalars: gaussian rationals and sparse multivariate polynomials over them.

Every coefficient in this library is one of these two types.  There is no
floating point anywhere; all identities are decided exactly.

Values are immutable: `__setattr__` and `__delattr__` raise.  Constructors
write the slots through the slot descriptors' setters, bound once at import
(`_set_a = GaussRat.a.__set__`), which skips the by-name slot lookup of
`object.__setattr__`.  `GaussRat._raw` is the one normalising constructor: it
brings (a + b i)/q to lowest terms with q > 0.  `__neg__`, `conj` and the
integer path of `__init__` need no gcd and write the slots directly.  Pickling
and copying rebuild a value through `_raw` from its slots.

A Poly keeps its coefficients as gaussian integers over one denominator q,
in the normal form gcd(q, every integer) = 1, so its arithmetic runs on plain
ints and normalises each result once (`lane_poly`), where a map of GaussRats
would normalise every term.  Its GaussRat coefficients, `.terms`, are built
only when read; `poly_lane` and `lane_poly` carry the integers across module
boundaries.  Pickling and copying rebuild a Poly from its slots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add as _add, lt as _lt, sub as _sub


class NoExactSquareRoot(ArithmeticError):
    """Raised when an exact square root is requested but does not exist."""


class MismatchedVariables(ValueError):
    """Raised when combining polynomials over different variable sets."""


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def add_term(out: dict, key, c):
    """out[key] += c for a sparse map of nonzero coefficients.

    The entry is dropped when the sum is zero.  A missing entry takes c as it
    is, so a Poly coefficient is never added to the GaussRat ZERO.
    """
    s = out.get(key)
    if s is None:
        out[key] = c
    else:
        s = s + c
        if s:
            out[key] = s
        else:
            del out[key]


class GaussRat:
    """A + Bi with A, B exact rationals in lowest terms.

    Stored as an integer triple (a + b i)/q with q > 0 and gcd(a, b, q) = 1,
    so each arithmetic step costs one gcd normalization.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, re=0, im=0):
        if isinstance(re, int) and isinstance(im, int):
            _set_a(self, re)
            _set_b(self, im)
            _set_q(self, 1)
            return
        fre, fim = _fr(re), _fr(im)
        q = fre.denominator * fim.denominator // gcd(fre.denominator, fim.denominator)
        _set_a(self, fre.numerator * (q // fre.denominator))
        _set_b(self, fim.numerator * (q // fim.denominator))
        _set_q(self, q)

    def __setattr__(self, *_):
        raise AttributeError("GaussRat is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return GaussRat._raw, (self.a, self.b, self.q)

    @staticmethod
    def _raw(a: int, b: int, q: int) -> "GaussRat":
        """(a + b i) / q in lowest terms, for integers a, b and q != 0."""
        if q != 1:
            if q < 0:
                a, b, q = -a, -b, -q
            g = gcd(a, b, q)
            if g > 1:
                a //= g
                b //= g
                q //= g
        out = _new(GaussRat)
        _set_a(out, a)
        _set_b(out, b)
        _set_q(out, q)
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.q)

    # -- ring/field operations -------------------------------------------
    # A Poly operand takes the operation at once (a constant coefficient
    # meets Polys all the time), as its reflected method would after
    # `_coerce` had refused it
    def __add__(self, other):
        if not isinstance(other, GaussRat):
            if type(other) is Poly:
                return other._plus_const(self)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.q == other.q:
            return GaussRat._raw(self.a + other.a, self.b + other.b, self.q)
        return GaussRat._raw(
            self.a * other.q + other.a * self.q,
            self.b * other.q + other.b * self.q,
            self.q * other.q,
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussRat):
            if type(other) is Poly:
                return (-other)._plus_const(self)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.q == other.q:
            return GaussRat._raw(self.a - other.a, self.b - other.b, self.q)
        return GaussRat._raw(
            self.a * other.q - other.a * self.q,
            self.b * other.q - other.b * self.q,
            self.q * other.q,
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = _new(GaussRat)
        _set_a(out, -self.a)
        _set_b(out, -self.b)
        _set_q(out, self.q)
        return out

    def __mul__(self, other):
        if not isinstance(other, GaussRat):
            if type(other) is Poly:
                return other._scaled(self)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        if b == 0 and d == 0:
            return GaussRat._raw(a * c, 0, self.q * other.q)
        return GaussRat._raw(a * c - b * d, a * d + b * c, self.q * other.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussRat):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        c, d = other.a, other.b
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero gaussian rational")
        a, b = self.a, self.b
        return GaussRat._raw(
            other.q * (a * c + b * d), other.q * (b * c - a * d), self.q * n
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return (ONE / self) ** (-n)
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conj(self) -> "GaussRat":
        out = _new(GaussRat)
        _set_a(out, self.a)
        _set_b(out, -self.b)
        _set_q(out, self.q)
        return out

    # -- predicates -------------------------------------------------------
    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return NotImplemented
        if not isinstance(other, GaussRat):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.q == other.q

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    # -- constant-polynomial interface -------------------------------------
    # The contract behind mixed coefficients: a constant stays a GaussRat,
    # never a constant Poly, and polynomial code reads it through these
    # methods, as it reads a Poly, with no lift and no type test
    def diff(self, name: str) -> "GaussRat":
        return ZERO

    def eval(self, point: dict) -> "GaussRat":
        return self

    def total_degree(self) -> int:
        return 0

    @property
    def is_const(self) -> bool:
        return True

    def const_value(self) -> "GaussRat":
        return self

    def __repr__(self):
        return gauss_str(self)


_new = object.__new__
_set_a, _set_b, _set_q = GaussRat.a.__set__, GaussRat.b.__set__, GaussRat.q.__set__


def _coerce(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, int):
        return GaussRat(x, 0)
    if isinstance(x, Fraction):
        return GaussRat._raw(x.numerator, 0, x.denominator)
    return NotImplemented


ZERO = GaussRat(0)
ONE = GaussRat(1)
IUNIT = GaussRat(0, 1)
HALF = GaussRat(Fraction(1, 2))


# -- the integer lane ---------------------------------------------------------
# Bulk kernels (wedge, pairing, matrix products) over GaussRat values scale
# each operand to gaussian integers by the lcm of its denominators, add up
# products in plain ints and call GaussRat._raw once per output entry: the
# common-denominator arithmetic of Geddes, Czapor and Labahn, "Algorithms for
# Computer Algebra" (1992).  A kernel takes this lane only when all_gauss holds
# for every operand.  Wedges and pairings of anything else (a Poly, an int)
# keep the generic loop; matrix products have a Poly lane of their own in
# `linalg`.

def all_gauss(cs) -> bool:
    """Whether every entry of cs is exactly a GaussRat."""
    return all(type(c) is GaussRat for c in cs)


def lane(cs):
    """(L, [(a, b), ...]): each GaussRat of the sequence cs as (a + b i) / L.

    L is the lcm of their denominators, so a and b are integers.
    """
    lc = lcm(*[c.q for c in cs])
    if lc == 1:
        return 1, [(c.a, c.b) for c in cs]
    return lc, [(c.a * (s := lc // c.q), c.b * s) for c in cs]


def lane_dot(xs, ys):
    """sum x y over two lanes' numerators, as the integer pair (u, v) = u + v i."""
    u = v = 0
    for (a, b), (c, d) in zip(xs, ys):
        u += a * c - b * d
        v += a * d + b * c
    return u, v


def gauss_str(g: GaussRat) -> str:
    """Render in the CLI scalar grammar, e.g. '1/2+1/3i'."""
    if not g:
        return "0"
    parts = []
    if g.re:
        parts.append(str(g.re))
    if g.im:
        s = str(g.im)
        if s == "1":
            s = ""
        elif s == "-1":
            s = "-"
        s += "i"
        if parts and not s.startswith("-"):
            parts.append("+" + s)
        else:
            parts.append(s)
    return "".join(parts)


def _sqrt_fraction(q: Fraction) -> Fraction:
    if q < 0:
        raise NoExactSquareRoot(f"{q} is negative")
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise NoExactSquareRoot(f"{q} is not a perfect square")
    return Fraction(rn, rd)


def sqrt_exact(g: GaussRat) -> GaussRat:
    """Exact square root in Q(i), or NoExactSquareRoot.

    For a+bi solves (c+di)^2 = a+bi using the norm: c^2 = (a + |z|)/2.
    """
    if not g:
        return ZERO
    if g.im == 0:
        if g.re > 0:
            return GaussRat(_sqrt_fraction(g.re))
        return GaussRat(0, _sqrt_fraction(-g.re))
    norm = _sqrt_fraction(g.re * g.re + g.im * g.im)
    c2 = (g.re + norm) / 2
    c = _sqrt_fraction(c2)
    if c == 0:
        raise NoExactSquareRoot(f"{g} has no gaussian-rational square root")
    d = g.im / (2 * c)
    root = GaussRat(c, d)
    if root * root != g:
        raise NoExactSquareRoot(f"{g} has no gaussian-rational square root")
    return root


class Poly:
    """Sparse polynomial over Q(i) in named chart variables.

    A Poly is stored as gaussian integers over one denominator: `vars`, a
    positive int q and {exponent tuple: (a, b)} with every a + bi nonzero,
    so the coefficient of x^e is (a + bi)/q.  In the normal form gcd(q,
    every a, every b) = 1, and q = 1 for zero, so equal polynomials have
    equal slots.  `+ - *`, negation, `conj`, `diff`, `==` and the predicates
    run on plain ints, and each result takes one content gcd (`lane_poly`),
    skipped when its denominator is 1: the common-denominator arithmetic of
    Geddes, Czapor and Labahn, "Algorithms for Computer Algebra" (1992).

    `.terms` is the read-only {exponent: GaussRat} view of the coefficients.
    It is built on first read and cached, so arithmetic never builds a
    GaussRat per term.  Code outside this module reads the integers through
    `poly_lane` and builds from them through `lane_poly`.

    Variables are real: conjugation only conjugates coefficients.  `divide`
    is exact division: it returns the quotient, or None when the divisor
    does not divide.

    `Poly(vars, terms)` takes scalar coefficients and drops the zero ones.
    `Poly._raw(vars, terms)` takes a tuple `vars` and nonzero GaussRat
    coefficients keyed by tuples of len(vars) ints, and checks nothing;
    `Poly._make(vars, q, nums)` takes the slots in normal form as they are.
    The caller of either promises that no one changes the dict afterwards.
    """

    __slots__ = ("vars", "_q", "_nums", "_view")

    def __init__(self, vars: tuple, terms: dict):
        gs = {e: g for e, c in terms.items() if (g := as_gauss(c))}
        q, pairs = lane(gs.values())
        _set_vars(self, tuple(vars))
        _set_pq(self, q)
        _set_nums(self, dict(zip(gs, pairs)))
        _set_view(self, None)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # the view travels too, so a copy has every slot of its original
        return Poly._make, (self.vars, self._q, self._nums, self._view)

    @staticmethod
    def _make(vars: tuple, q: int, nums: dict, view=None) -> "Poly":
        out = _new(Poly)
        _set_vars(out, vars)
        _set_pq(out, q)
        _set_nums(out, nums)
        _set_view(out, view)
        return out

    @staticmethod
    def _raw(vars: tuple, terms: dict) -> "Poly":
        # GaussRats in lowest terms, put on the lcm q of their denominators,
        # are in normal form: each prime power in q is a term's denominator's,
        # and that term's two integers are not both multiples of the prime
        q, pairs = lane(terms.values())
        return Poly._make(vars, q, dict(zip(terms, pairs)))

    @property
    def terms(self) -> dict:
        """{exponent: GaussRat}, the coefficients; built once, never to be changed."""
        view = self._view
        if view is None:
            view = self._gauss_terms()
            _set_view(self, view)
        return view

    def _gauss_terms(self) -> dict:
        q, raw = self._q, GaussRat._raw
        return {e: raw(a, b, q) for e, (a, b) in self._nums.items()}

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, vars, c) -> "Poly":
        c = c if isinstance(c, GaussRat) else GaussRat(c)
        vars = tuple(vars)
        if not c:
            return Poly._make(vars, 1, {})
        return Poly._make(vars, c.q, {(0,) * len(vars): (c.a, c.b)})

    @classmethod
    def var(cls, vars, name) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise MismatchedVariables(f"{name!r} is not a chart variable of {vars}")
        e = tuple(1 if v == name else 0 for v in vars)
        return Poly._make(vars, 1, {e: (1, 0)})

    @classmethod
    def zero(cls, vars) -> "Poly":
        return Poly._make(tuple(vars), 1, {})

    # -- helpers -----------------------------------------------------------
    def _peer(self, other: "Poly") -> dict:
        """The integers of a Poly over the same variables."""
        if other.vars != self.vars:
            raise MismatchedVariables(
                f"polynomials over {self.vars} and {other.vars} cannot be combined"
            )
        return other._nums

    def _plus_const(self, g: GaussRat) -> "Poly":
        return self._combine(Poly.const(self.vars, g), 1) if g else self

    def _scaled(self, g: GaussRat) -> "Poly":
        if not g:
            return Poly._make(self.vars, 1, {})
        return lane_poly(self.vars, self._q * g.q, _times(self._nums, g.a, g.b))

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, for sign 1 or -1."""
        nums = self._peer(other)
        if not nums:
            return self
        q1, q2 = self._q, other._q
        k = gcd(q1, q2)
        s1, s2 = q2 // k, q1 // k
        out = dict(self._nums) if s1 == 1 else _times(self._nums, s1, 0)
        nums = _times(nums, s2 * sign, 0)
        get = out.get
        for e, (c, d) in nums.items():
            uv = get(e)
            if uv is None:
                out[e] = c, d
            else:
                c += uv[0]
                d += uv[1]
                if c or d:
                    out[e] = c, d
                else:
                    del out[e]
        return lane_poly(self.vars, q1 * s1, out)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        if type(other) is not Poly:
            g = _coerce(other)
            if g is NotImplemented:
                return NotImplemented
            return self._plus_const(g)
        if not self._nums:
            self._peer(other)
            return other
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Poly:
            g = _coerce(other)
            if g is NotImplemented:
                return NotImplemented
            return self._plus_const(-g)
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly._make(self.vars, self._q, {e: (-a, -b) for e, (a, b) in self._nums.items()})

    def __mul__(self, other):
        if type(other) is not Poly:
            g = _coerce(other)
            if g is NotImplemented:
                return NotImplemented
            return self._scaled(g)
        x, y = self._nums, self._peer(other)
        if not x:
            return self
        if not y:
            return other
        q = self._q * other._q
        if len(x) == 1:
            x, y = y, x
        if len(y) == 1:
            # a monomial factor maps distinct exponents to distinct exponents
            ((e2, (c, d)),) = y.items()
            if any(e2):
                x = {tuple(map(_add, e, e2)): ab for e, ab in x.items()}
            return lane_poly(self.vars, q, _times(x, c, d))
        out: dict = {}
        get = out.get
        for e1, (a, b) in x.items():
            for e2, (c, d) in y.items():
                e = tuple(map(_add, e1, e2))
                uv = get(e)
                if uv is None:
                    out[e] = a * c - b * d, a * d + b * c
                else:
                    out[e] = uv[0] + a * c - b * d, uv[1] + a * d + b * c
        return lane_poly(self.vars, q, {e: uv for e, uv in out.items() if uv[0] or uv[1]})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("a polynomial has no negative power")
        out = Poly.const(self.vars, ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def divide(self, g) -> "Poly | None":
        """The q with q * g == self, or None when g does not divide self.

        This is the division algorithm in lex order, exponent tuples compared
        as tuples.  A single divisor is a Groebner basis of its own ideal, so
        g divides exactly when the remainder is 0: when the leading monomial
        of g divides the leading monomial of each remainder on the way down.
        A nonzero GaussRat g divides every polynomial; ZERO raises, as the
        zero polynomial does.  Quotient coefficients are GaussRats on the
        way: they have the norm of g's leading coefficient in their
        denominators, which a common denominator would carry into every term.
        """
        if isinstance(g, GaussRat):
            if not g:
                raise ZeroDivisionError("division by the zero polynomial")
            return self._scaled(ONE / g)
        if not self._peer(g):
            raise ZeroDivisionError("division by the zero polynomial")
        terms = g._gauss_terms()
        lead = max(terms)
        lc = terms[lead]
        tail = [(e, c) for e, c in terms.items() if e != lead]
        rem = self._gauss_terms()
        out = {}
        while rem:
            e = max(rem)
            if any(map(_lt, e, lead)):
                return None
            c = rem.pop(e) / lc
            shift = tuple(map(_sub, e, lead))
            out[shift] = c
            for e2, c2 in tail:
                add_term(rem, tuple(map(_add, shift, e2)), -(c * c2))
        return Poly._raw(self.vars, out)

    def conj(self) -> "Poly":
        return Poly._make(self.vars, self._q, {e: (a, -b) for e, (a, b) in self._nums.items()})

    # -- calculus ------------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        """Formal partial derivative."""
        try:
            i = self.vars.index(name)
        except ValueError:
            raise MismatchedVariables(
                f"{name!r} is not a chart variable of {self.vars}"
            ) from None
        out = {}
        # lowering e[i] is injective on the terms it keeps, so nothing collides
        for e, ab in self._nums.items():
            k = e[i]
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1 :]
                out[e2] = ab if k == 1 else (k * ab[0], k * ab[1])
        return lane_poly(self.vars, self._q, out)

    def _values(self, point: dict) -> list:
        """The GaussRat coordinate of point for each variable, in order."""
        vals = []
        for v in self.vars:
            if v not in point:
                raise MismatchedVariables(f"no value given for {v!r}")
            x = point[v]
            vals.append(x if isinstance(x, GaussRat) else GaussRat(x))
        return vals

    def eval(self, point: dict) -> GaussRat:
        """Substitute gaussian-rational coordinates for every variable."""
        return self._eval_at(self._values(point), {})

    def _eval_at(self, vals: list, monos: dict) -> GaussRat:
        """The value at the coordinates vals.

        monos caches the value of each monomial at vals by exponent, so the
        polynomials of a matrix over one chart compute each monomial once
        (`linalg.eval_matrix`).  The monomial values go on one integer lane,
        so the sum runs over integers and is divided once.
        """
        ws = []
        for e in self._nums:
            w = monos.get(e)
            if w is None:
                w = ONE
                for y, k in zip(vals, e):
                    if k:
                        w = w * y**k
                monos[e] = w
            ws.append(w)
        den, lw = lane(ws)
        u, v = lane_dot(self._nums.values(), lw)
        return GaussRat._raw(u, v, den * self._q)

    def subs_into(self, target_vars: tuple, mapping: dict) -> "Poly":
        """Substitute variables by polynomials over a (possibly new) chart.

        Variables absent from `mapping` must exist in `target_vars` and map to
        themselves.
        """
        target_vars = tuple(target_vars)
        images = []
        for v in self.vars:
            if v in mapping:
                img = mapping[v]
                if not isinstance(img, Poly):
                    img = Poly.const(target_vars, img)
                elif img.vars != target_vars:
                    raise MismatchedVariables("substitution image over wrong chart")
            else:
                img = Poly.var(target_vars, v)
            images.append(img)
        acc = Poly.zero(target_vars)
        for e, c in self._gauss_terms().items():
            t = Poly.const(target_vars, c)
            for img, k in zip(images, e):
                if k:
                    t = t * img**k
            acc = acc + t
        return acc

    # -- predicates ------------------------------------------------------------
    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if type(other) is Poly:
            return self.vars == other.vars and self._q == other._q and self._nums == other._nums
        g = _coerce(other)
        if g is NotImplemented:
            return NotImplemented
        if not g:
            return not self._nums
        return self._q == g.q and self._nums == {(0,) * len(self.vars): (g.a, g.b)}

    @property
    def is_const(self) -> bool:
        return all(not any(e) for e in self._nums)

    def const_value(self) -> GaussRat:
        nums = self._nums
        if not nums:
            return ZERO
        if len(nums) > 1 or any(next(iter(nums))):
            raise ValueError(f"{self!r} is not constant")
        ((a, b),) = nums.values()
        return GaussRat._raw(a, b, self._q)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._nums), default=0)

    def __repr__(self):
        return poly_str(self)


_set_vars, _set_pq, _set_nums, _set_view = (
    Poly.vars.__set__, Poly._q.__set__, Poly._nums.__set__, Poly._view.__set__
)


def _times(nums: dict, c: int, d: int) -> dict:
    """nums times the gaussian integer c + di: nums itself when that is 1."""
    if d:
        return {e: (a * c - b * d, a * d + b * c) for e, (a, b) in nums.items()}
    if c == 1:
        return nums
    return {e: (a * c, b * c) for e, (a, b) in nums.items()}


def lane_poly(vars: tuple, q: int, nums: dict) -> Poly:
    """The Poly sum (a + bi)/q x^e over nums, brought to normal form.

    q > 0, and nums holds nonzero pairs keyed by tuples of len(vars) ints; it
    is taken over, so no one changes it afterwards.  The content gcd runs
    only when q > 1 and stops as soon as it reaches 1.
    """
    if q != 1:
        g = q
        for a, b in nums.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        else:  # g divides every integer, and g = q when nums is empty
            q //= g
            if nums:
                nums = {e: (a // g, b // g) for e, (a, b) in nums.items()}
    out = _new(Poly)
    _set_vars(out, vars)
    _set_pq(out, q)
    _set_nums(out, nums)
    _set_view(out, None)
    return out


def poly_lane(p: Poly):
    """(q, nums): p as gaussian integers over one denominator.

    nums maps each exponent to (a, b) with the coefficient (a + bi)/q, and
    gcd(q, every a, every b) = 1.  It is p's own map: read it, never change it.
    """
    return p._q, p._nums


def poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    bits = []
    for e, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(p.vars, e) if k
        )
        cs = gauss_str(c)
        if mono:
            if cs == "1":
                term = mono
            elif cs == "-1":
                term = "-" + mono
            elif ("+" in cs[1:]) or ("-" in cs[1:]):
                term = f"({cs})*{mono}"
            else:
                term = f"{cs}*{mono}"
        else:
            term = cs if ("+" not in cs[1:] and "-" not in cs[1:]) else f"({cs})"
        if bits and not term.startswith("-"):
            bits.append("+ " + term)
        elif bits:
            bits.append("- " + term[1:])
        else:
            bits.append(term)
    return " ".join(bits)


def is_real(x) -> bool:
    """Whether a scalar or Poly has only real coefficients."""
    if type(x) is GaussRat:
        return not x.b
    if isinstance(x, Poly):
        return not any(b for _, b in x._nums.values())
    return not as_gauss(x).b


def as_gauss(x) -> GaussRat:
    """Coerce a scalar to a constant GaussRat, rejecting genuine polynomials."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, Poly):
        return x.const_value()
    g = _coerce(x)
    if g is NotImplemented:
        raise TypeError(f"not a scalar: {x!r}")
    return g
