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
boundaries.  Its exponents are packed, one int per monomial (`pack`), so a
product of monomials is one int addition.  Pickling and copying rebuild a
Poly from its slots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import add as _add, lt as _lt, or_ as _or, sub as _sub


class NoExactSquareRoot(ArithmeticError):
    """Raised when an exact square root is requested but does not exist."""


class MismatchedVariables(ValueError):
    """Raised when combining polynomials over different variable sets."""


class ExponentOverflow(ValueError):
    """Raised when an exponent of a Poly would pass MAX_EXPONENT."""


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


# -- packed exponents ---------------------------------------------------------
# A monomial x^e over n variables is one int: e[i] in the W-bit field at bit
# W (n - 1 - i), variable 0 in the highest field, so int order is the lex
# order of exponent tuples.  The top bit of each field is a guard bit that no
# stored exponent sets (Monagan and Pearce, "Polynomial division using
# dynamic arrays, heaps, and packed exponent vectors", CASC 2007).

_W = 32
_FIELD = (1 << _W) - 1
MAX_EXPONENT = (1 << (_W - 1)) - 1
_GUARD_MASKS = {}  # n: the guard bits of n fields, each computed on first use


def pack(e, n: int) -> int:
    """The packed key of the exponent tuple e of n nonnegative ints."""
    if len(e) != n:
        raise ValueError(f"exponent {tuple(e)} is not over {n} variables")
    key = 0
    for k in e:
        if not 0 <= k <= MAX_EXPONENT:
            if k < 0:
                raise ValueError(f"negative exponent in {tuple(e)}")
            raise ExponentOverflow(f"exponent {k} passes {MAX_EXPONENT}")
        key = key << _W | k
    return key


def unpack(key: int, n: int) -> tuple:
    """The exponent tuple of a packed key over n variables."""
    out = [0] * n
    i = n - 1
    while key:
        out[i] = key & _FIELD
        key >>= _W
        i -= 1
    return tuple(out)


def guard_exponents(vars: tuple, keys) -> None:
    """Raise ExponentOverflow when a key of sums of two packed keys sets a guard bit.

    Each field of a stored key is at most MAX_EXPONENT = 2^(W-1) - 1, so a
    field of the sum of two keys is at most 2^W - 2 and fits its W bits: no
    carry crosses into the next field, and the sum passes MAX_EXPONENT
    exactly where it sets that field's guard bit.  One OR over the keys
    checks every field of a result at once.
    """
    n = len(vars)
    mask = _GUARD_MASKS.get(n)
    if mask is None:
        mask = _GUARD_MASKS[n] = sum(1 << (_W * i + _W - 1) for i in range(n))
    if reduce(_or, keys, 0) & mask:
        raise ExponentOverflow(
            f"an exponent of a polynomial over {vars} passes {MAX_EXPONENT}"
        )


def _gauss_pow(a: int, b: int, k: int):
    """(a + bi)^k as an integer pair, for k >= 1."""
    if not b:
        return a**k, 0
    c, d = 1, 0
    while True:
        if k & 1:
            c, d = c * a - d * b, c * b + d * a
        k >>= 1
        if not k:
            return c, d
        a, b = a * a - b * b, 2 * a * b


class Poly:
    """Sparse polynomial over Q(i) in named chart variables.

    A Poly is stored as gaussian integers over one denominator: `vars`, a
    positive int q and {packed exponent: (a, b)} with every a + bi nonzero,
    so the coefficient of x^e is (a + bi)/q.  In the normal form gcd(q,
    every a, every b) = 1, and q = 1 for zero, so equal polynomials have
    equal slots.  `+ - *`, negation, `conj`, `diff`, `==` and the predicates
    run on plain ints, and each result takes one content gcd (`lane_poly`),
    skipped when its denominator is 1: the common-denominator arithmetic of
    Geddes, Czapor and Labahn, "Algorithms for Computer Algebra" (1992).

    An exponent tuple e is packed into one int (`pack`): e[i] sits in the
    W-bit field at bit W (n - 1 - i), W = 32, so the constant monomial is 0
    and int order is tuple lex order.  Each field's top bit is a guard bit,
    clear in every stored key, so an exponent is at most MAX_EXPONENT =
    2^31 - 1.  A product of monomials is the sum of their keys: two fields
    below 2^(W-1) add to less than 2^W, so no carry crosses a field, and
    the one OR of `guard_exponents` over a product's keys raises
    ExponentOverflow where a sum set a guard bit.  `diff` subtracts
    1 << shift from keys whose field at shift is nonzero, which borrows
    nothing.

    `.terms` is the read-only {exponent tuple: GaussRat} view of the
    coefficients.  It is built on first read and cached, so arithmetic never
    builds a GaussRat per term or unpacks a key.  Code outside this module
    reads the integers through `poly_lane` and builds from them through
    `lane_poly`.

    Variables are real: conjugation only conjugates coefficients.  `divide`
    is exact division: it returns the quotient, or None when the divisor
    does not divide.

    `Poly(vars, terms)` takes scalar coefficients keyed by exponent tuples
    and drops the zero ones.  `Poly._raw(vars, terms)` takes a tuple `vars`
    and nonzero GaussRat coefficients keyed by tuples of len(vars) ints;
    `Poly._make(vars, q, nums)` takes the slots in normal form as they are.
    The caller of either promises that no one changes the dict afterwards.
    """

    __slots__ = ("vars", "_q", "_nums", "_view")

    def __init__(self, vars: tuple, terms: dict):
        vars = tuple(vars)
        n = len(vars)
        gs = {pack(e, n): g for e, c in terms.items() if (g := as_gauss(c))}
        q, pairs = lane(gs.values())
        _set_vars(self, vars)
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
        n = len(vars)
        return Poly._make(vars, q, {pack(e, n): ab for e, ab in zip(terms, pairs)})

    @property
    def terms(self) -> dict:
        """{exponent tuple: GaussRat}, the coefficients; built once, never to be changed."""
        view = self._view
        if view is None:
            view = self._gauss_terms()
            _set_view(self, view)
        return view

    def _gauss_terms(self) -> dict:
        q, raw, n = self._q, GaussRat._raw, len(self.vars)
        return {unpack(e, n): raw(a, b, q) for e, (a, b) in self._nums.items()}

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, vars, c) -> "Poly":
        c = c if isinstance(c, GaussRat) else GaussRat(c)
        vars = tuple(vars)
        if not c:
            return Poly._make(vars, 1, {})
        return Poly._make(vars, c.q, {0: (c.a, c.b)})

    @classmethod
    def var(cls, vars, name) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise MismatchedVariables(f"{name!r} is not a chart variable of {vars}")
        return Poly._make(vars, 1, {1 << _W * (len(vars) - 1 - vars.index(name)): (1, 0)})

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
        """self + sign * other, for sign 1 or -1.

        Over the common denominator, the merge loop scales other's integers
        by s, the sign included, so no scaled copy of other is built.
        """
        nums = self._peer(other)
        if not nums:
            return self
        q1, q2 = self._q, other._q
        k = gcd(q1, q2)
        s1, s = q2 // k, q1 // k * sign
        out = dict(self._nums) if s1 == 1 else _times(self._nums, s1, 0)
        get = out.get
        for e, (c, d) in nums.items():
            uv = get(e)
            if uv is None:
                out[e] = c * s, d * s
            else:
                c = uv[0] + c * s
                d = uv[1] + d * s
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
            if e2:
                x = {e + e2: ab for e, ab in x.items()}
                guard_exponents(self.vars, x)
            return lane_poly(self.vars, q, _times(x, c, d))
        out: dict = {}
        get = out.get
        for e1, (a, b) in x.items():
            for e2, (c, d) in y.items():
                e = e1 + e2
                uv = get(e)
                if uv is None:
                    out[e] = a * c - b * d, a * d + b * c
                else:
                    out[e] = uv[0] + a * c - b * d, uv[1] + a * d + b * c
        out = {e: uv for e, uv in out.items() if uv[0] or uv[1]}
        guard_exponents(self.vars, out)
        return lane_poly(self.vars, q, out)

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
        shift = _W * (len(self.vars) - 1 - i)
        one = 1 << shift
        out = {}
        # lowering field i is injective on the terms it keeps, so nothing collides
        for e, ab in self._nums.items():
            k = e >> shift & _FIELD
            if k:
                out[e - one] = ab if k == 1 else (k * ab[0], k * ab[1])
        return lane_poly(self.vars, self._q, out)

    def _values(self, point: dict):
        """The coordinates of point on one integer lane: (L, tables).

        Coordinate i is tables[i][1] / L, and tables[i] maps k to the
        integer pair of the k-th power of that numerator; `_monomial` adds
        the powers it needs.
        """
        vals = []
        for v in self.vars:
            if v not in point:
                raise MismatchedVariables(f"no value given for {v!r}")
            x = point[v]
            vals.append(x if isinstance(x, GaussRat) else GaussRat(x))
        lc, pairs = lane(vals)
        return lc, [{1: ab} for ab in pairs]

    def eval(self, point: dict) -> GaussRat:
        """Substitute gaussian-rational coordinates for every variable."""
        return self._eval_at(self._values(point), {})

    def _eval_at(self, vals, monos: dict) -> GaussRat:
        """The value at the coordinates vals = (L, tables) of `_values`.

        monos caches, by packed exponent, each monomial's value at vals as
        (degree, c, d) with the value (c + di) / L^degree, and the degree 0
        when L = 1; so the polynomials of a matrix over one chart compute
        each monomial once (`linalg.eval_matrix`).  The sum runs over
        integers, one partial sum per degree, and is divided once.
        """
        lc, tables = vals
        sums = {}
        for e, (a, b) in self._nums.items():
            w = monos.get(e)
            if w is None:
                w = monos[e] = _monomial(e, lc, tables)
            deg, c, d = w
            if c or d:
                u, v = a * c - b * d, a * d + b * c
                s = sums.get(deg)
                sums[deg] = (u, v) if s is None else (s[0] + u, s[1] + v)
        top = max(sums, default=0)
        u = v = 0
        for deg, (s, t) in sums.items():
            f = lc ** (top - deg)
            u += s * f
            v += t * f
        return GaussRat._raw(u, v, self._q * lc**top)

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
        return self._q == g.q and self._nums == {0: (g.a, g.b)}

    @property
    def is_const(self) -> bool:
        return not any(self._nums)

    def const_value(self) -> GaussRat:
        nums = self._nums
        if not nums:
            return ZERO
        if len(nums) > 1 or next(iter(nums)):
            raise ValueError(f"{self!r} is not constant")
        ((a, b),) = nums.values()
        return GaussRat._raw(a, b, self._q)

    def total_degree(self) -> int:
        top = 0
        for e in self._nums:
            deg = 0
            while e:
                deg += e & _FIELD
                e >>= _W
            if deg > top:
                top = deg
        return top

    def __repr__(self):
        return poly_str(self)


_set_vars, _set_pq, _set_nums, _set_view = (
    Poly.vars.__set__, Poly._q.__set__, Poly._nums.__set__, Poly._view.__set__
)


def _monomial(e: int, lc: int, tables: list):
    """(degree, c, d): the monomial of packed key e at `Poly._values` coordinates."""
    c, d, deg = 1, 0, 0
    i = len(tables) - 1
    while e:
        k = e & _FIELD
        if k:
            t = tables[i]
            p = t.get(k)
            if p is None:
                p = t[k] = _gauss_pow(*t[1], k)
            c, d = c * p[0] - d * p[1], c * p[1] + d * p[0]
            deg += k
        e >>= _W
        i -= 1
    return (deg if lc != 1 else 0), c, d


def _times(nums: dict, c: int, d: int) -> dict:
    """nums times the gaussian integer c + di: nums itself when that is 1."""
    if d:
        return {e: (a * c - b * d, a * d + b * c) for e, (a, b) in nums.items()}
    if c == 1:
        return nums
    return {e: (a * c, b * c) for e, (a, b) in nums.items()}


def lane_poly(vars: tuple, q: int, nums: dict) -> Poly:
    """The Poly sum (a + bi)/q x^e over nums, brought to normal form.

    q > 0, and nums holds nonzero pairs keyed by packed exponents over
    len(vars) variables (`pack`), none with a guard bit set; it is taken
    over, so no one changes it afterwards.  The content gcd runs only when
    q > 1 and stops as soon as it reaches 1.
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

    nums maps each packed exponent (`pack`; `unpack` reads it back) to (a, b)
    with the coefficient (a + bi)/q, and gcd(q, every a, every b) = 1.  It is
    p's own map: read it, never change it.
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
