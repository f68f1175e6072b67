"""Seeded input generators for the benchmark workloads.

Everything is drawn from one random.Random, so a seed fixes every input.
Objects are built from gcgeo's public constructors only; the program's own
random helpers are not used, so a change to them cannot move the inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gcgeo import linalg
from gcgeo.charts import Chart
from gcgeo.clifford import BlockTransform
from gcgeo.gcs import (
    GCStructure,
    direct_sum,
    j_complex,
    j_symplectic,
    standard_complex_endo,
    standard_symplectic_map,
)
from gcgeo.isotropics import cotangent_space, tangent_space, transform
from gcgeo.scalars import GaussRat, Poly


class Gen:
    def __init__(self, seed: int):
        self.r = random.Random(seed)
        self._standard = {}

    def seed(self) -> int:
        return self.r.randrange(1 << 30)

    def frac(self, span: int = 2, nonzero: bool = False) -> Fraction:
        while True:
            x = Fraction(self.r.randint(-span, span), self.r.choice([1, 1, 2]))
            if x or not nonzero:
                return x

    def gauss(self, span: int = 2, complex_ok: bool = True, nonzero: bool = False) -> GaussRat:
        while True:
            re = self.frac(span)
            im = self.frac(span) if complex_ok and self.r.random() < 0.5 else Fraction(0)
            g = GaussRat(re, im)
            if g or not nonzero:
                return g

    def antisym(self, m: int, span: int = 1, complex_ok: bool = False, dense: bool = False):
        out = linalg.zeros(m, m)
        for i in range(m):
            for j in range(i + 1, m):
                c = self.gauss(span, complex_ok, nonzero=dense)
                out[i][j] = c
                out[j][i] = -c
        return out

    def gl(self, m: int, dense: bool = False):
        """Unit lower times unit upper triangular: invertible with det 1."""
        lo = linalg.identity(m)
        up = linalg.identity(m)
        for i in range(m):
            for j in range(i):
                lo[i][j] = GaussRat(self.frac(1, nonzero=dense))
                up[j][i] = GaussRat(self.frac(1, nonzero=dense))
        return linalg.mat_mul(lo, up)

    def block(self, m: int, kinds=("B", "beta", "gl"), complex_ok: bool = False,
              dense: bool = False) -> BlockTransform:
        kind = self.r.choice(kinds)
        if kind == "gl":
            return BlockTransform(m, "gl", self.gl(m, dense))
        return BlockTransform(m, kind, self.antisym(m, 1, complex_ok, dense))

    def isotropic(self, m: int, steps: int = 2, dense: bool = False):
        iso = tangent_space(m) if self.r.random() < 0.5 else cotangent_space(m)
        for _ in range(steps):
            iso = transform(iso, self.block(m, complex_ok=True, dense=dense))
        return iso

    def conjugator(self, m: int, kinds, dense: bool = False):
        """A random B, beta or GL orthogonal map of V + V* and its inverse."""
        kind = self.r.choice(kinds)
        o, o_inv = linalg.identity(2 * m), linalg.identity(2 * m)
        if kind == "gl":
            g = self.gl(m, dense)
            g_inv = linalg.inverse(g)
            for i in range(m):
                for j in range(m):
                    o[i][j], o[m + i][m + j] = g[i][j], g_inv[j][i]
                    o_inv[i][j], o_inv[m + i][m + j] = g_inv[i][j], g[j][i]
            return o, o_inv
        shear = self.antisym(m, 1, dense=dense)
        row, col = (m, 0) if kind == "B" else (0, m)
        for i in range(m):
            for j in range(m):
                o[row + i][col + j], o_inv[row + i][col + j] = shear[i][j], -shear[i][j]
        return o, o_inv

    def gc_structure(self, m: int, k: int, conjugations: int = 2, kinds=("B", "gl"),
                     dense: bool = False) -> GCStructure:
        """Random B/GL conjugate of complex-k plus symplectic (valid by construction)."""
        key = (m, k)
        if key not in self._standard:
            if k == 0:
                s = j_symplectic(standard_symplectic_map(m // 2))
            elif 2 * k == m:
                s = j_complex(standard_complex_endo(k))
            else:
                s = direct_sum(
                    j_complex(standard_complex_endo(k)),
                    j_symplectic(standard_symplectic_map((m - 2 * k) // 2)),
                )
            self._standard[key] = s.matrix()
        j = self._standard[key]
        for _ in range(conjugations):
            o, o_inv = self.conjugator(m, kinds, dense)
            j = linalg.mat_mul(o, linalg.mat_mul(j, o_inv))
        return GCStructure(m, tuple(tuple(row) for row in j))

    def poly(self, chart: Chart, degree: int, terms: int = 3) -> Poly:
        """Real-coefficient polynomial with a term of exactly the given degree."""
        acc = chart.zero()
        for t in range(terms):
            exps = [0] * chart.dim
            for _ in range(degree if t == 0 else self.r.randint(0, degree)):
                exps[self.r.randrange(chart.dim)] += 1
            acc = acc + Poly(chart.names, {tuple(exps): self.gauss(2, False, nonzero=True)})
        return acc

    def holomorphic(self, chart: Chart, degree: int, dense: bool = False) -> Poly:
        """Random polynomial in z1, z2 of exact degree `degree` (nonzero).

        dense: every coefficient has nonzero real and imaginary parts of
        size 1 or 1/2, so the polynomial's cost hardly depends on the seed.
        """
        def coeff():
            if dense:
                return GaussRat(self.frac(1, nonzero=True), self.frac(1, nonzero=True))
            return self.gauss(2)

        while True:
            coeffs = {}
            for a in range(degree + 1):
                coeffs[(a, degree - a)] = coeff()
            for e in ((0, 0), (1, 0), (0, 1)):
                coeffs.setdefault(e, coeff())
            f = chart.holo(coeffs)
            if f.total_degree() == degree:
                return f
