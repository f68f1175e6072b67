"""Exterior algebra on a bitmask basis: mixed forms and multivectors.

A MixedForm is a sparse map from basis bitmasks to scalar coefficients
(GaussRat or Poly).  Bit i set means generator e^i (forms) or e_i
(multivectors) is present; blades are stored with indices ascending, and the
sign of a product is the parity of the merging permutation, read off the
prefix-parity table `_PP`.

When both factors have only GaussRat coefficients, `wedge` runs in the
integer lane of `scalars`: each factor is scaled to gaussian integers by the
lcm of its denominators, the products are added up as integer pairs per
output blade, and `GaussRat._raw` runs once per output coefficient.  The
Mukai pairing `mukai_coeff` adds up its complementary products in plain
ints too, and normalises once.  Poly coefficients, alone or mixed with
GaussRat ones, keep the term-by-term loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import GaussRat, ONE, Poly, ZERO, add_term, all_gauss, lane

MAX_DIM = 12
_ODD_INDICES = sum(1 << i for i in range(1, MAX_DIM, 2))


def _prefix_parities():
    """_PP[b] has bit i set when blade b has an odd number of generators below i.

    Adding generator h to a blade below it flips the parity of every i > h.
    """
    pp = [0]
    for h in range(MAX_DIM):
        flip = ((1 << MAX_DIM) - 1) & ~((2 << h) - 1)
        pp += [p ^ flip for p in pp]
    return pp


_PP = _prefix_parities()


class CapacityError(ValueError):
    """A problem exceeds a supported size: the bitmask width or the ansatz cap."""


def check_dim(m: int):
    if not (0 < m <= MAX_DIM):
        raise CapacityError(f"dimension {m} outside supported range 1..{MAX_DIM}")


def merge_sign(a: int, b: int) -> int:
    """Parity of the permutation sorting blade a followed by blade b.

    It counts the pairs (i in a, j in b) with j < i: for each i in a, the
    parity of b below i, which is bit i of _PP[b].
    """
    return -1 if (a & _PP[b]).bit_count() & 1 else 1


def contract_sign(mask: int, i: int) -> int:
    """Sign of removing generator i from an ascending blade."""
    return -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1


class MixedForm:
    """Element of the full exterior algebra, of form or multivector variance."""

    __slots__ = ("dim", "variance", "terms")

    def __init__(self, dim: int, terms: dict, variance: str = "form"):
        check_dim(dim)
        if variance not in ("form", "mv"):
            raise ValueError(f"unknown variance {variance!r}")
        full = 1 << dim
        clean = {}
        for mask, c in terms.items():
            if not (0 <= mask < full):
                raise ValueError(f"bitmask {mask} out of range for dim {dim}")
            if c:
                clean[mask] = c
        _set_dim(self, dim)
        _set_variance(self, variance)
        _set_terms(self, clean)

    @staticmethod
    def _raw(dim: int, terms: dict, variance: str) -> "MixedForm":
        """Trusted constructor: stores terms as given and checks nothing.

        The caller guarantees a checked dim and variance, masks below 2^dim
        and no zero coefficient.
        """
        out = object.__new__(MixedForm)
        _set_dim(out, dim)
        _set_variance(out, variance)
        _set_terms(out, terms)
        return out

    def __setattr__(self, *_):
        raise AttributeError("MixedForm is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return MixedForm._raw, (self.dim, self.terms, self.variance)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, dim, variance="form"):
        return cls(dim, {}, variance)

    @classmethod
    def one(cls, dim, variance="form"):
        return cls(dim, {0: ONE}, variance)

    @classmethod
    def blade(cls, dim, indices, coeff=ONE, variance="form"):
        """Blade from 0-based generator indices; sign from sorting them."""
        mask = 0
        seen = []
        for i in indices:
            if not 0 <= i < dim:
                raise ValueError(f"generator index {i} out of range")
            if mask & (1 << i):
                return cls.zero(dim, variance)
            seen.append(i)
            mask |= 1 << i
        inv = sum(
            1
            for a in range(len(seen))
            for b in range(a + 1, len(seen))
            if seen[a] > seen[b]
        )
        c = coeff if not isinstance(coeff, (int, Fraction)) else GaussRat(coeff)
        if inv & 1:
            c = -c
        return cls(dim, {mask: c}, variance)

    @classmethod
    def top(cls, dim, coeff=ONE, variance="form"):
        return cls(dim, {(1 << dim) - 1: coeff}, variance)

    # -- basic algebra -----------------------------------------------------
    def _check_peer(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.variance != other.variance:
            raise ValueError("variance mismatch: cannot combine form and multivector")

    def __add__(self, other):
        self._check_peer(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return MixedForm._raw(self.dim, out, self.variance)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MixedForm._raw(self.dim, {m: -c for m, c in self.terms.items()}, self.variance)

    def scale(self, c):
        if not c:
            return MixedForm.zero(self.dim, self.variance)
        return MixedForm._raw(self.dim, {m: c * x for m, x in self.terms.items()}, self.variance)

    def wedge(self, other) -> "MixedForm":
        self._check_peer(other)
        ta, tb = self.terms, other.terms
        if all_gauss(ta.values()) and all_gauss(tb.values()):
            return MixedForm._raw(self.dim, _wedge_lane(ta, tb), self.variance)
        out: dict = {}
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                if ma & mb:
                    continue
                sgn = merge_sign(ma, mb)
                m = ma | mb
                t = ca * cb
                if sgn < 0:
                    t = -t
                add_term(out, m, t)
        return MixedForm._raw(self.dim, out, self.variance)

    # -- grading ------------------------------------------------------------
    def degree_part(self, k: int) -> "MixedForm":
        return MixedForm(
            self.dim,
            {m: c for m, c in self.terms.items() if m.bit_count() == k},
            self.variance,
        )

    def degrees(self):
        return sorted({m.bit_count() for m in self.terms})

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero element has no degree")
        return min(m.bit_count() for m in self.terms)

    # -- contraction ----------------------------------------------------------
    def contract(self, coeffs) -> "MixedForm":
        """Interior product with the dual object whose components are `coeffs`.

        For a form this is i_X with X = sum coeffs[i] e_i; for a multivector it
        is contraction by the covector with those components.
        """
        out: dict = {}
        # the sign of removing i is odd after an odd number of lower bits;
        # it goes on the factor coeffs[i], negated once per index, so no
        # product is built twice
        negs = {}
        for mask, c in self.terms.items():
            rem = mask
            odd = False
            while rem:
                low = rem & -rem
                i = low.bit_length() - 1
                rem ^= low
                x = coeffs[i]
                if x:
                    if odd:
                        x = negs.get(i)
                        if x is None:
                            x = negs[i] = -coeffs[i]
                    add_term(out, mask ^ low, x * c)
                odd = not odd
        return MixedForm._raw(self.dim, out, self.variance)

    def contract_blade(self, blade_mask: int) -> "MixedForm":
        """Iterated interior product by the generators of an ascending blade.

        Matches the convention i_{v1^...^vk} = i_{vk} o ... o i_{v1}: the
        lowest index is contracted first.
        """
        out: dict = {}
        for mask, c in self.terms.items():
            if blade_mask & ~mask:
                continue
            sgn = 1
            cur = mask
            rem = blade_mask
            while rem:
                low = rem & -rem
                i = low.bit_length() - 1
                rem ^= low
                sgn *= contract_sign(cur, i)
                cur ^= low
            add_term(out, cur, c if sgn > 0 else -c)
        return MixedForm._raw(self.dim, out, self.variance)

    def contract_mv(self, mv: "MixedForm") -> "MixedForm":
        """i_P for a multivector P acting on this form (or dually)."""
        if mv.dim != self.dim:
            raise ValueError("dimension mismatch")
        if mv.variance == self.variance:
            raise ValueError("contraction pairs a form with a multivector")
        acc = MixedForm.zero(self.dim, self.variance)
        for bmask, bc in mv.terms.items():
            acc = acc + self.contract_blade(bmask).scale(bc)
        return acc

    # -- exponentials -----------------------------------------------------------
    def _exp_series(self, step) -> "MixedForm":
        """self + step(self) + step(step(self))/2! + ... for a nilpotent step.

        A step by an exponent with no degree-0 part moves every degree by at
        least one, so it vanishes within dim + 1 steps; a later nonzero term
        means the exponent has a degree-0 part and the series never ends.
        """
        acc = cur = self
        k = 1
        while True:
            cur = step(cur).scale(GaussRat._raw(1, 0, k))
            if not cur:
                return acc
            if k > self.dim + 1:
                raise ValueError(
                    "exponential series does not terminate: the exponent has a degree-0 part"
                )
            acc = acc + cur
            k += 1

    def exp_wedge_on(self, omega: "MixedForm") -> "MixedForm":
        """e^self ^ omega, grown as omega + self ^ omega + self^2 ^ omega / 2! + ...

        self must have even degrees, so it commutes with every form and the
        series is e^self ^ omega term by term; its powers are never formed on
        their own, and each step wedges self onto the last term, which starts
        at the lowest degree of omega.  A degree-0 part makes e^self an
        infinite series, refused here whatever omega is, as `exp_wedge` refuses it.
        """
        if any(m.bit_count() % 2 for m in self.terms):
            raise ValueError("wedge exponential needs even degrees")
        if 0 in self.terms:
            raise ValueError(
                "exponential series does not terminate: the exponent has a degree-0 part"
            )
        self._check_peer(omega)
        return omega._exp_series(lambda c: c.wedge(self))

    def exp_wedge(self) -> "MixedForm":
        """Wedge exponential 1 + a + a^2/2! + ... for even-degree nilpotents."""
        return self.exp_wedge_on(MixedForm.one(self.dim, self.variance))

    def exp_contract(self, mv: "MixedForm") -> "MixedForm":
        """e^{i_P} applied to this form: phi + i_P phi + i_P i_P phi / 2! + ..."""
        return self._exp_series(lambda c: c.contract_mv(mv))

    # -- involutions -------------------------------------------------------------
    def reversal(self) -> "MixedForm":
        """Main antiautomorphism: degree k picks up (-1)^{k(k-1)/2}."""
        out = {}
        for m, c in self.terms.items():
            k = m.bit_count()
            out[m] = -c if (k * (k - 1) // 2) & 1 else c
        return MixedForm(self.dim, out, self.variance)

    def conj(self) -> "MixedForm":
        return MixedForm(self.dim, {m: c.conj() for m, c in self.terms.items()}, self.variance)

    # -- evaluation ----------------------------------------------------------------
    def eval_at(self, point: dict) -> "MixedForm":
        """The form with each coefficient evaluated at a chart point.

        The Poly coefficients over one chart share their coordinates and the
        values of their monomials (`Poly._eval_at`), as in
        `linalg.eval_matrix`, so each monomial is computed once per call.
        """
        charts = {}
        out = {}
        for m, c in self.terms.items():
            if type(c) is Poly:
                vals, monos = charts.get(c.vars) or charts.setdefault(
                    c.vars, (c._values(point), {})
                )
                c = c._eval_at(vals, monos)
            if c:
                out[m] = c
        return MixedForm._raw(self.dim, out, self.variance)

    def map_coeffs(self, f) -> "MixedForm":
        return MixedForm(self.dim, {m: f(c) for m, c in self.terms.items()}, self.variance)

    # -- predicates -------------------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MixedForm):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.variance == other.variance
            and self.terms == other.terms
        )

    def coeff(self, mask: int):
        return self.terms.get(mask, ZERO)

    def proportional_to(self, other: "MixedForm") -> bool:
        """Projective equality of two nonzero elements (exact cross products)."""
        self._check_peer(other)
        if not self.terms or not other.terms:
            return False
        anchor = min(self.terms)
        ca = self.terms[anchor]
        cb = other.terms.get(anchor)
        if cb is None or not cb:
            return False
        for m in set(self.terms) | set(other.terms):
            if self.coeff(m) * cb != other.coeff(m) * ca:
                return False
        return True

    def __repr__(self):
        if not self.terms:
            return "0"
        sym = "e" if self.variance == "form" else "e_"
        bits = []
        for m in sorted(self.terms, key=lambda x: (x.bit_count(), x)):
            idx = "".join(str(i + 1) for i in range(self.dim) if m & (1 << i))
            blade = f"{sym}{idx}" if idx else "1"
            bits.append(f"({self.terms[m]!r})*{blade}")
        return " + ".join(bits)


_set_dim = MixedForm.dim.__set__
_set_variance = MixedForm.variance.__set__
_set_terms = MixedForm.terms.__set__


def _wedge_lane(ta: dict, tb: dict) -> dict:
    """The terms of ta ^ tb for GaussRat coefficients, in the integer lane.

    Products are added up as integer pairs (u, v) per blade, in the order
    and with the cancellations of the term-by-term loop, so the blades come
    out in the same order; each sum is then divided by the product of the
    two factors' common denominators, one normalisation per blade.
    """
    la, xa = lane(ta.values())
    lb, xb = lane(tb.values())
    right = [(mb, _PP[mb], c, d) for mb, (c, d) in zip(tb, xb)]
    out: dict = {}
    get = out.get
    for ma, (a, b) in zip(ta, xa):
        for mb, pb, c, d in right:
            if ma & mb:
                continue
            if b:
                u, v = a * c - b * d, a * d + b * c
            else:
                u, v = a * c, a * d
            if (ma & pb).bit_count() & 1:
                u, v = -u, -v
            m = ma | mb
            cur = get(m)
            if cur is not None:
                u += cur[0]
                v += cur[1]
                if not (u or v):
                    del out[m]
                    continue
            out[m] = (u, v)
    q = la * lb
    return {m: GaussRat._raw(u, v, q) for m, (u, v) in out.items()}


def mukai_pair(s: MixedForm, t: MixedForm) -> "MixedForm":
    """Mukai pairing [reversal(s) ^ t]_top as a top-degree form."""
    return MixedForm(s.dim, {(1 << s.dim) - 1: mukai_coeff(s, t)}, s.variance)


def mukai_coeff(s: MixedForm, t: MixedForm):
    """Top coefficient of reversal(s) ^ t, in O(terms).

    Only a blade of s and the complementary blade of t reach the top degree.
    A degree-k blade with indices I pairs with the reversal sign
    (-1)^{k(k-1)/2} times the merge sign (-1)^{sum(I) - k(k-1)/2}, that is
    with (-1)^{sum(I)}: the parity of the odd indices in I.

    When both forms have only GaussRat coefficients, the signed products
    are added up in plain ints, two per product of denominators, and
    `GaussRat._raw` runs once (`_mukai_lane`); a sum that cancels is ZERO.
    Poly coefficients, alone or mixed with GaussRat ones, keep the
    term-by-term loop.
    """
    s._check_peer(t)
    top = (1 << s.dim) - 1
    if all_gauss(s.terms.values()) and all_gauss(t.terms.values()):
        return _mukai_lane(s.terms, t.terms, top)
    acc = ZERO
    for mask, c in s.terms.items():
        d = t.terms.get(top ^ mask)
        if d is None:
            continue
        acc = acc - c * d if (mask & _ODD_INDICES).bit_count() & 1 else acc + c * d
        if not acc:
            acc = ZERO
    return acc


def _mukai_lane(ts: dict, tt: dict, top: int) -> GaussRat:
    """`mukai_coeff` of GaussRat terms ts and tt, in the integer lane.

    The signed product of (a + bi)/q and (c + di)/r is added to the integer
    pair kept for the denominator qr; the few pairs are then brought to the
    lcm of their denominators and added, and `GaussRat._raw` runs once.
    """
    sums = {}
    get = tt.get
    for mask, x in ts.items():
        y = get(top ^ mask)
        if y is None:
            continue
        a, b, c, d = x.a, x.b, y.a, y.b
        if (mask & _ODD_INDICES).bit_count() & 1:
            c, d = -c, -d
        q = x.q * y.q
        acc = sums.get(q)
        if acc is None:
            sums[q] = [a * c - b * d, a * d + b * c]
        else:
            acc[0] += a * c - b * d
            acc[1] += a * d + b * c
    if not sums:
        return ZERO
    lc = lcm(*sums)
    u = v = 0
    for q, (x, y) in sums.items():
        s = lc // q
        u += x * s
        v += y * s
    return GaussRat._raw(u, v, lc) if u or v else ZERO


def covector_form(dim: int, coeffs, variance="form") -> MixedForm:
    return MixedForm(dim, {1 << i: c for i, c in enumerate(coeffs) if c}, variance)


def coefficient_rows(columns, target=None):
    """Rows of sum_j x_j columns[j] = target, one per blade that any reaches.

    A row is {j: coefficient of the blade in columns[j]}, as `linalg.kernel`
    and `linalg.solve` take them with ncols = len(columns); rhs holds the
    target's coefficient of each row's blade.  Returns (rows, rhs).
    """
    t = target.terms if target is not None else {}
    rows = {mask: {} for mask in t}
    for j, f in enumerate(columns):
        for mask, c in f.terms.items():
            rows.setdefault(mask, {})[j] = c
    return list(rows.values()), [t.get(mask, ZERO) for mask in rows]


def two_form_from_map(m, variance="form") -> MixedForm:
    """2-form (or bivector) whose induced shear map is the given matrix.

    The map convention is x -> i_x B, so components B(e_i, e_j) = map[j][i].
    """
    dim = len(m)
    terms = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            c = m[j][i]
            if c:
                terms[(1 << i) | (1 << j)] = c
    return MixedForm(dim, terms, variance)


def map_from_two_form(f: MixedForm):
    """Inverse of two_form_from_map."""
    dim = f.dim
    out = [[ZERO for _ in range(dim)] for _ in range(dim)]
    for mask, c in f.terms.items():
        if mask.bit_count() != 2:
            raise ValueError("not a 2-homogeneous element")
        i = (mask & -mask).bit_length() - 1
        j = (mask ^ (mask & -mask)).bit_length() - 1
        out[j][i] = c
        out[i][j] = -c
    return out
