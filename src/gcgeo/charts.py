"""Polynomial coordinate charts, with optional complex pairings.

A chart is a tuple of real variable names.  Holomorphic examples pair
consecutive variables as z_k = x_{2k-1} + i x_{2k}; the paired calculus
(dz, dzbar, del_z, del_zbar, holomorphic polynomials) is derived, keeping a
single real polynomial scalar backend.

Coefficients over a chart are mixed: a constant is a `GaussRat`, anything
else a `Poly` over the chart's names, and every form, section and matrix
operation takes the two side by side.  Nothing lifts a constant into the
chart ring first; `GaussRat` answers the calls polynomial code makes of a
coefficient (`diff`, `eval`, `total_degree`, `is_const`, `const_value`).
The ring helpers below still return Polys, the constant ones too.
"""

from __future__ import annotations

from .record import Record
from .scalars import GaussRat, Poly, ONE, IUNIT, HALF
from .forms import MixedForm, check_dim
from .clifford import GenVector


class Chart(Record, frozen=True):
    names: tuple
    complex_pairs: tuple = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("chart variable names must be distinct")
        check_dim(len(self.names))
        used = set()
        for (a, b) in self.complex_pairs:
            for i in (a, b):
                if not 0 <= i < len(self.names) or i in used:
                    raise ValueError("complex pairing must use distinct variable indices")
                used.add(i)

    @classmethod
    def real(cls, *names) -> "Chart":
        return cls(tuple(names))

    @classmethod
    def complex_plane(cls, n: int) -> "Chart":
        """C^n modelled on R^{2n} with z_k = x_{2k-1} + i x_{2k}."""
        names = tuple(f"x{i+1}" for i in range(2 * n))
        pairs = tuple((2 * k, 2 * k + 1) for k in range(n))
        return cls(names, pairs)

    # -- ring helpers ------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def n_complex(self) -> int:
        return len(self.complex_pairs)

    def zero(self) -> Poly:
        return Poly.zero(self.names)

    def one(self) -> Poly:
        return Poly.const(self.names, ONE)

    def const(self, c) -> Poly:
        return Poly.const(self.names, c)

    def var(self, name) -> Poly:
        return Poly.var(self.names, name)

    def coord(self, i: int) -> Poly:
        return Poly.var(self.names, self.names[i])

    def point(self, *values) -> dict:
        if len(values) != self.dim:
            raise ValueError("wrong number of coordinates")
        return {
            n: v if isinstance(v, GaussRat) else GaussRat(v)
            for n, v in zip(self.names, values)
        }

    # -- complex calculus ---------------------------------------------------
    def z(self, k: int) -> Poly:
        a, b = self.complex_pairs[k]
        return self.coord(a) + IUNIT * self.coord(b)

    def zbar(self, k: int) -> Poly:
        a, b = self.complex_pairs[k]
        return self.coord(a) - IUNIT * self.coord(b)

    def dz(self, k: int) -> MixedForm:
        a, b = self.complex_pairs[k]
        return MixedForm(self.dim, {1 << a: self.one(), 1 << b: self.const(IUNIT)})

    def dzbar(self, k: int) -> MixedForm:
        a, b = self.complex_pairs[k]
        return MixedForm(self.dim, {1 << a: self.one(), 1 << b: self.const(-IUNIT)})

    def del_z(self, k: int) -> GenVector:
        a, b = self.complex_pairs[k]
        vec = [self.zero()] * self.dim
        vec[a] = self.const(HALF)
        vec[b] = self.const(GaussRat(0, "-1/2"))
        return GenVector(self.dim, vec, [self.zero()] * self.dim)

    def del_zbar(self, k: int) -> GenVector:
        a, b = self.complex_pairs[k]
        vec = [self.zero()] * self.dim
        vec[a] = self.const(HALF)
        vec[b] = self.const(GaussRat(0, "1/2"))
        return GenVector(self.dim, vec, [self.zero()] * self.dim)

    def holo(self, coeffs: dict) -> Poly:
        """Polynomial in the z's from {exponent tuple: coefficient}."""
        acc = self.zero()
        for exps, c in coeffs.items():
            t = self.const(c)
            for k, e in enumerate(exps):
                if e:
                    t = t * self.z(k) ** e
            acc = acc + t
        return acc

    def diff_zbar(self, f: Poly, k: int) -> Poly:
        a, b = self.complex_pairs[k]
        fa = f.diff(self.names[a])
        fb = f.diff(self.names[b])
        return HALF * fa + GaussRat(0, "1/2") * fb
