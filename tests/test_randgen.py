"""Seeded generators: fixed seeds reproduce fixed polynomials and sections.

The values below pin `Rng.poly` and `Rng.section`, value and term order,
to what the generators gave when each drawn term was added as a Poly of
its own, so the seeded suites and their reports keep their inputs.
"""

import pytest

from gcgeo.charts import Chart
from gcgeo.randgen import Rng
from gcgeo.scalars import Poly

R3 = Chart.real("x", "y", "z")
C2 = Chart.complex_plane(2)

# seed: [(value, exponents in term order)] of poly(R3), poly(R3, 3, 6, True)
# and poly(C2, 1, 4), drawn in that order
POLYS = {
    0: [
        ("-2*y - 1/2*z", [(0, 1, 0), (0, 0, 1)]),
        ("-z^3 - 2*x*z + (-2+i)*y*z + (2-i)*z^2 - y + z",
         [(0, 1, 0), (0, 0, 2), (0, 1, 1), (0, 0, 1), (1, 0, 1), (0, 0, 3)]),
        ("-5/2*x1 - 1", [(1, 0, 0, 0), (0, 0, 0, 0)]),
    ],
    1: [
        ("x + z + 2", [(0, 0, 0), (1, 0, 0), (0, 0, 1)]),
        ("(1/2+i)*x*y*z + (-2-i)*z + (7/2+1/2i)", [(0, 0, 0), (1, 1, 1), (0, 0, 1)]),
        ("0", []),
    ],
    29: [
        ("x*y + 2*x - 2*y", [(1, 1, 0), (1, 0, 0), (0, 1, 0)]),
        ("3/2*y*z^2 + x*z + y*z + 1/2", [(0, 0, 0), (0, 1, 2), (1, 0, 1), (0, 1, 1)]),
        ("1/2*x2", [(0, 1, 0, 0)]),
    ],
}

# seed: (vector part, covector part) of section(R3, 3)
SECTIONS = {
    3: (
        ["2*y*z + 2*z", "1/2*x + 1", "-1/2*x*y*z + 1/2*z"],
        ["-2", "y*z^2 + 1/2*y*z", "-x^2 + 1/2*y"],
    ),
    8: (
        ["y - 2*z", "x*y*z + 2*x", "x*y*z"],
        ["-y^2*z + 1/2*x^2", "1/2", "-1/2*z + 2"],
    ),
}


@pytest.mark.parametrize("seed", sorted(POLYS))
def test_poly_is_pinned(seed):
    r = Rng(seed)
    got = [r.poly(R3), r.poly(R3, 3, 6, True), r.poly(C2, 1, 4)]
    assert all(type(p) is Poly for p in got)
    assert [(repr(p), list(p.terms)) for p in got] == POLYS[seed]


@pytest.mark.parametrize("seed", sorted(SECTIONS))
def test_section_is_pinned(seed):
    sec = Rng(seed).section(R3, 3)
    assert ([repr(c) for c in sec.vec], [repr(c) for c in sec.covec]) == SECTIONS[seed]


def test_poly_is_the_sum_of_its_drawn_terms():
    # the same draws, each term built as a Poly of its own and added up
    for seed in range(40):
        r, ref = Rng(seed), Rng(seed)
        for chart, degree, terms, complex_ok in [(R3, 2, 3, False), (C2, 3, 8, True)]:
            want = chart.zero()
            for _ in range(terms):
                exps = [0] * chart.dim
                for _ in range(ref.r.randint(0, degree)):
                    exps[ref.r.randrange(chart.dim)] += 1
                want = want + Poly(chart.names, {tuple(exps): ref.gauss(2, complex_ok)})
            got = r.poly(chart, degree, terms, complex_ok)
            assert got == want and list(got.terms) == list(want.terms)
