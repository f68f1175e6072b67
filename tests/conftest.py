import pytest
from fractions import Fraction

from hypothesis import strategies as st

from gcgeo.scalars import GaussRat


@st.composite
def gauss_rats(draw, span=3, den=2):
    num = draw(st.integers(-span, span))
    d = draw(st.integers(1, den))
    num_i = draw(st.integers(-span, span))
    d_i = draw(st.integers(1, den))
    return GaussRat(Fraction(num, d), Fraction(num_i, d_i))


@st.composite
def small_masks(draw, dim):
    return draw(st.integers(0, (1 << dim) - 1))


def wide_gauss_rats():
    """Numerators up to 10^6 and denominators up to 50, so rows carry content."""
    return gauss_rats(10**6, 50)
