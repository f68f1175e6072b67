"""Seeded random generators for structured test objects.

Everything draws from a private random.Random so identical seeds reproduce
identical cases, which the CLI records in its reports.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import GaussRat, Poly, add_term
from .forms import MixedForm, two_form_from_map
from .clifford import GenVector, BlockTransform
from .charts import Chart
from . import linalg


class Rng:
    def __init__(self, seed: int = 0):
        self.r = random.Random(seed)

    def fraction(self, span: int = 2) -> Fraction:
        num = self.r.randint(-span, span)
        den = self.r.choice([1, 1, 2])
        return Fraction(num, den)

    def gauss(self, span: int = 2, complex_ok: bool = True) -> GaussRat:
        re = self.fraction(span)
        im = self.fraction(span) if complex_ok and self.r.random() < 0.5 else Fraction(0)
        return GaussRat(re, im)

    def poly(self, chart: Chart, degree: int = 2, terms: int = 3, complex_ok: bool = False) -> Poly:
        """The sum of `terms` random terms, repeated exponents added up."""
        out = {}
        for _ in range(terms):
            exps = [0] * chart.dim
            for _ in range(self.r.randint(0, degree)):
                exps[self.r.randrange(chart.dim)] += 1
            c = self.gauss(2, complex_ok)
            if c:
                add_term(out, tuple(exps), c)
        return Poly._raw(chart.names, out)

    def section(self, chart: Chart, degree: int = 2) -> GenVector:
        m = chart.dim
        return GenVector(
            m,
            [self.poly(chart, degree, 2) for _ in range(m)],
            [self.poly(chart, degree, 2) for _ in range(m)],
        )

    def antisym_map(self, m: int, span: int = 2, complex_ok: bool = False):
        out = linalg.zeros(m, m)
        for i in range(m):
            for j in range(i + 1, m):
                c = self.gauss(span, complex_ok)
                out[i][j] = c
                out[j][i] = -c
        return out

    def two_form(self, m: int, complex_ok: bool = False) -> MixedForm:
        return two_form_from_map(self.antisym_map(m, 2, complex_ok))

    def poly_two_form(self, chart: Chart, degree: int = 1) -> MixedForm:
        m = chart.dim
        terms = {}
        for i in range(m):
            for j in range(i + 1, m):
                if self.r.random() < 0.6:
                    terms[(1 << i) | (1 << j)] = self.poly(chart, degree, 2)
        return MixedForm(m, terms)

    def gl_matrix(self, m: int):
        """Unit lower times unit upper triangular: always invertible, det 1."""
        lo = linalg.identity(m)
        up = linalg.identity(m)
        for i in range(m):
            for j in range(i):
                lo[i][j] = GaussRat(self.fraction(1))
                up[j][i] = GaussRat(self.fraction(1))
        return linalg.mat_mul(lo, up)

    def block_transform(self, m: int, kinds=("B", "beta", "gl"), complex_ok: bool = False) -> BlockTransform:
        kind = self.r.choice(kinds)
        if kind == "gl":
            return BlockTransform(m, "gl", self.gl_matrix(m))
        return BlockTransform(m, kind, self.antisym_map(m, 1, complex_ok))

    def isotropic(self, m: int, steps: int = 3, complex_ok: bool = True, start=None):
        from .isotropics import tangent_space, cotangent_space, transform

        iso = start
        if iso is None:
            iso = tangent_space(m) if self.r.random() < 0.5 else cotangent_space(m)
        for _ in range(steps):
            iso = transform(iso, self.block_transform(m, complex_ok=complex_ok))
        return iso

    def form(self, m: int, terms: int = 4, complex_ok: bool = True) -> MixedForm:
        out = {}
        for _ in range(terms):
            out[self.r.randrange(1 << m)] = self.gauss(2, complex_ok)
        return MixedForm(m, out)

    def multivector(self, chart: Chart, degree_forms: int = 2, poly_degree: int = 1, terms: int = 2) -> MixedForm:
        m = chart.dim
        out = {}
        masks = [mask for mask in range(1 << m) if mask.bit_count() == degree_forms]
        for _ in range(terms):
            out[self.r.choice(masks)] = self.poly(chart, poly_degree, 2)
        return MixedForm(m, out, "mv")

    def gc_structure(self, m: int, k: int, conjugations: int = 2, kinds=("B", "beta", "gl")):
        """Random conjugate of the standard complex-k + symplectic sum."""
        from .gcs import (
            j_complex,
            j_symplectic,
            direct_sum,
            standard_complex_endo,
            standard_symplectic_map,
            validate_gc,
        )

        if k == 0:
            s = j_symplectic(standard_symplectic_map(m // 2))
        elif 2 * k == m:
            s = j_complex(standard_complex_endo(k))
        else:
            s = direct_sum(
                j_complex(standard_complex_endo(k)),
                j_symplectic(standard_symplectic_map((m - 2 * k) // 2)),
            )
        j = s.matrix()
        for _ in range(conjugations):
            t = self.block_transform(m, kinds=kinds)
            o = t.orth_matrix()
            j = linalg.mat_mul(o, linalg.mat_mul(j, linalg.inverse(o)))
        return validate_gc(j)

    def point(self, chart: Chart, span: int = 1) -> dict:
        return {
            n: GaussRat(self.r.randint(-span, span)) for n in chart.names
        }
