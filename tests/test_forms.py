import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcgeo.scalars import GaussRat, IUNIT, ONE, ZERO
from gcgeo.forms import (
    CapacityError,
    MixedForm,
    contract_sign,
    map_from_two_form,
    merge_sign,
    mukai_coeff,
    two_form_from_map,
)

from conftest import gauss_rats


def blade(dim, *idx, coeff=ONE, variance="form"):
    return MixedForm.blade(dim, [i - 1 for i in idx], coeff, variance)


def indices(mask):
    return [i for i in range(mask.bit_length()) if mask & (1 << i)]


def bubble_sort_parity(seq):
    """Independent oracle: count transpositions sorting the sequence."""
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


class TestWedgeSigns:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_sign_matches_permutation_oracle(self, m):
        for a in range(1 << m):
            for b in range(1 << m):
                if a & b:
                    continue
                got = merge_sign(a, b)
                want = bubble_sort_parity(indices(a) + indices(b))
                assert got == want, (a, b)

    def test_basic_examples(self):
        m = 4
        assert blade(m, 1).wedge(blade(m, 2)) == blade(m, 1, 2)
        assert blade(m, 2).wedge(blade(m, 1)) == -blade(m, 1, 2)
        lhs = (MixedForm.one(m) + blade(m, 1, 2)).wedge(MixedForm.one(m) + blade(m, 3, 4))
        want = (
            MixedForm.one(m)
            + blade(m, 1, 2)
            + blade(m, 3, 4)
            + blade(m, 1, 2, 3, 4)
        )
        assert lhs == want

    def test_variance_mismatch_rejected(self):
        f = blade(2, 1)
        v = blade(2, 1, variance="mv")
        with pytest.raises(ValueError, match="variance"):
            f.wedge(v)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            MixedForm.zero(13)


@st.composite
def forms(draw, dim=3, terms=3, variance="form"):
    out = {}
    for _ in range(draw(st.integers(1, terms))):
        mask = draw(st.integers(0, (1 << dim) - 1))
        num = draw(st.integers(-2, 2))
        den = draw(st.integers(1, 2))
        numi = draw(st.integers(-2, 2))
        out[mask] = GaussRat(Fraction(num, den), numi)
    return MixedForm(dim, out, variance)


class TestWedgeAlgebra:
    @given(forms(), forms(), forms())
    @settings(max_examples=40, deadline=None)
    def test_bilinear_associative(self, a, b, c):
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
        assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)

    @given(forms(), forms())
    @settings(max_examples=40, deadline=None)
    def test_graded_commutative(self, a, b):
        for p in a.degrees():
            for q in b.degrees():
                ap, bq = a.degree_part(p), b.degree_part(q)
                sign = -ONE if (p * q) % 2 else ONE
                assert ap.wedge(bq) == bq.wedge(ap).scale(sign)

    def test_degree_parts_partition(self):
        m = 4
        f = MixedForm.one(m) + blade(m, 1, 2) + blade(m, 1, 2, 3)
        acc = MixedForm.zero(m)
        for k in range(m + 1):
            acc = acc + f.degree_part(k)
        assert acc == f


class TestContraction:
    def test_contract_sign_is_position_parity(self):
        # removing the generator at position p picks up (-1)^p
        mask = 0b1011
        assert contract_sign(mask, 0) == 1
        assert contract_sign(mask, 1) == -1
        assert contract_sign(mask, 3) == 1

    def test_two_form_map_round_trip(self):
        m = 4
        rng = random.Random(5)
        mat = [[ZERO] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                c = GaussRat(rng.randint(-3, 3))
                mat[i][j] = c
                mat[j][i] = -c
        f = two_form_from_map(mat)
        assert map_from_two_form(f) == mat

    def test_shear_map_convention(self):
        # i_{e1} (e1^e2) = e2 under the map of the 2-form e12
        f = blade(2, 1, 2)
        mat = map_from_two_form(f)
        assert mat[1][0] == ONE and mat[0][1] == -ONE


def contract_by_negated_products(form, coeffs):
    """Reference contraction: each product x c, negated for an odd sign."""
    out = {}
    for mask, c in form.terms.items():
        for i in indices(mask):
            x = coeffs[i]
            if not x:
                continue
            t = x * c
            if contract_sign(mask, i) < 0:
                t = -t
            key = mask ^ (1 << i)
            if key in out:
                out[key] = out[key] + t
                if not out[key]:
                    del out[key]
            else:
                out[key] = t
    return out


class TestContractionSigns:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_values_and_types_match_the_negated_products(self, data):
        # the odd sign goes on the factor now; every coefficient keeps its
        # value and its type, GaussRat or Poly
        from gcgeo.charts import Chart
        from gcgeo.randgen import Rng

        chart = Chart.real("x", "y")
        rng = Rng(data.draw(st.integers(0, 10**6)))
        m = data.draw(st.integers(1, 5))
        scalar = st.one_of(
            st.just(ZERO),
            gauss_rats(),
            st.builds(lambda: rng.poly(chart, 2, 3, complex_ok=True)),
        )
        masks = st.integers(0, (1 << m) - 1)
        terms = data.draw(st.dictionaries(masks, scalar, max_size=8))
        variance = data.draw(st.sampled_from(["form", "mv"]))
        form = MixedForm(m, terms, variance)
        coeffs = data.draw(st.lists(scalar, min_size=m, max_size=m))
        got = form.contract(coeffs).terms
        want = contract_by_negated_products(form, coeffs)
        assert got == want
        assert [type(got[k]) for k in got] == [type(want[k]) for k in got]


class TestMukai:
    def test_even_examples_m4(self):
        m = 4
        assert mukai_coeff(MixedForm.one(m), MixedForm.top(m)) == ONE
        assert mukai_coeff(blade(m, 1, 2), blade(m, 3, 4)) == -ONE

    def test_m2_convention_constant(self):
        # frozen convention constant for the symplectic pairing (1+iw, 1-iw)
        m = 2
        w = blade(m, 1, 2)
        s = MixedForm.one(m) + w.scale(IUNIT)
        t = MixedForm.one(m) + w.scale(-IUNIT)
        assert mukai_coeff(s, t) == GaussRat(0, -2)

    @given(forms(dim=4), forms(dim=4))
    @settings(max_examples=40, deadline=None)
    def test_graded_symmetry(self, s, t):
        m = 4
        sign = -ONE if (m * (m - 1) // 2) % 2 else ONE
        assert mukai_coeff(s, t) == sign * mukai_coeff(t, s)

    @given(forms(dim=4), forms(dim=4))
    @settings(max_examples=40, deadline=None)
    def test_even_odd_orthogonal(self, s, t):
        ev = MixedForm(4, {m: c for m, c in s.terms.items() if m.bit_count() % 2 == 0})
        od = MixedForm(4, {m: c for m, c in t.terms.items() if m.bit_count() % 2})
        assert not mukai_coeff(ev, od)

    @pytest.mark.parametrize("m", [3, 6])
    def test_symmetry_other_dims(self, m):
        rng = random.Random(m)
        for _ in range(10):
            s = MixedForm(m, {rng.randrange(1 << m): GaussRat(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)})
            t = MixedForm(m, {rng.randrange(1 << m): GaussRat(rng.randint(-2, 2)) for _ in range(3)})
            sign = -ONE if (m * (m - 1) // 2) % 2 else ONE
            assert mukai_coeff(s, t) == sign * mukai_coeff(t, s)

    def test_closed_form_even_odd_m4(self):
        # the even and odd closed-form expansions against the generic pairing
        m = 4
        rng = random.Random(9)

        def rand_part(degrees):
            out = {}
            for mask in range(1 << m):
                if mask.bit_count() in degrees:
                    out[mask] = GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
            return MixedForm(m, out)

        for _ in range(20):
            rho = rand_part({0, 2, 4})
            sig = rand_part({0, 2, 4})
            closed = (
                rho.degree_part(0).wedge(sig.degree_part(4))
                - rho.degree_part(2).wedge(sig.degree_part(2))
                + rho.degree_part(4).wedge(sig.degree_part(0))
            )
            assert mukai_coeff(rho, sig) == closed.coeff((1 << m) - 1)
            rho1 = rand_part({1, 3})
            sig1 = rand_part({1, 3})
            closed1 = rho1.degree_part(1).wedge(sig1.degree_part(3)) - rho1.degree_part(
                3
            ).wedge(sig1.degree_part(1))
            assert mukai_coeff(rho1, sig1) == closed1.coeff((1 << m) - 1)


class TestExpWedge:
    def test_exp_of_two_form(self):
        m = 4
        b = blade(m, 1, 2) + blade(m, 3, 4)
        e = b.exp_wedge()
        assert e.degree_part(0) == MixedForm.one(m)
        assert e.degree_part(2) == b
        assert e.degree_part(4) == blade(m, 1, 2, 3, 4)

    @given(forms(dim=4, terms=4), forms(dim=4, terms=4, variance="mv"))
    @settings(max_examples=40, deadline=None)
    def test_exp_contract_is_the_series(self, phi, mv):
        from math import factorial

        from gcgeo.clifford import BlockTransform

        beta = mv.degree_part(2)
        series = MixedForm.zero(4)
        power = phi
        for k in range(3):  # i_beta lowers degree by 2, so i_beta^3 = 0 on 4-forms
            series = series + power.scale(GaussRat(Fraction(1, factorial(k))))
            power = power.contract_mv(beta)
        assert not power
        assert phi.exp_contract(beta) == series
        assert BlockTransform.from_bivector(beta).spinor(phi) == series

    @given(forms(dim=4, terms=4), forms(dim=4, terms=4, variance="mv"))
    @settings(max_examples=40, deadline=None)
    def test_exp_contract_of_mixed_degrees(self, phi, mv):
        from math import factorial

        mv = mv - mv.degree_part(0)
        series = MixedForm.zero(4)
        power = phi
        for k in range(5):  # every degree drops by at least 1 per step
            series = series + power.scale(GaussRat(Fraction(1, factorial(k))))
            power = power.contract_mv(mv)
        assert not power
        assert phi.exp_contract(mv) == series

    def test_degree_0_exponent_raises(self):
        m = 2
        msg = "exponential series does not terminate: the exponent has a degree-0 part"
        with pytest.raises(ValueError, match=msg):
            (MixedForm.one(m) + blade(m, 1, 2)).exp_wedge()
        with pytest.raises(ValueError, match=msg):
            MixedForm.top(m).exp_contract(blade(m, 1, 2, variance="mv") + MixedForm.one(m, "mv"))

    def test_reversal_signs(self):
        m = 4
        f = MixedForm.one(m) + blade(m, 1) + blade(m, 1, 2) + blade(m, 1, 2, 3) + MixedForm.top(m)
        r = f.reversal()
        assert r.coeff(0) == ONE
        assert r.coeff(0b0001) == ONE
        assert r.coeff(0b0011) == -ONE
        assert r.coeff(0b0111) == -ONE
        assert r.coeff(0b1111) == ONE


class TestMukaiNondegeneracy:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_pairing_matrix_invertible(self, m):
        from gcgeo import linalg

        basis = list(range(1 << m))
        rows = []
        for a in basis:
            s = MixedForm(m, {a: ONE})
            rows.append([mukai_coeff(s, MixedForm(m, {b: ONE})) for b in basis])
        assert linalg.rank(rows) == len(basis)


class TestCapacityBoundary:
    def test_dimension_twelve_supported(self):
        m = 12
        a = MixedForm.blade(m, [0, 5, 11])
        b = MixedForm.blade(m, [1, 2, 3])
        assert a.wedge(b).min_degree() == 6
        assert mukai_coeff(MixedForm.one(m), MixedForm.top(m)) == ONE


def mukai_by_wedge(s, t):
    """Reference: the top coefficient of the full wedge reversal(s) ^ t."""
    return s.reversal().wedge(t).coeff((1 << s.dim) - 1)


@st.composite
def mukai_pairs(draw, coeffs=gauss_rats(), max_dim=8):
    """(s, t) of one dimension, with some blades of t complementary to s.

    Degrees are mixed, all odd, or all even.
    """
    dim = draw(st.integers(1, max_dim))
    top = (1 << dim) - 1
    parity = draw(st.sampled_from(["mixed", "odd", "even"]))
    masks = st.integers(0, top).filter(
        lambda m: parity == "mixed" or m.bit_count() % 2 == (parity == "odd")
    )
    s_masks = draw(st.lists(masks, max_size=12, unique=True))
    t_masks = set(draw(st.lists(masks, max_size=6)))
    t_masks |= {top ^ m for m in s_masks if draw(st.booleans())}
    s = MixedForm(dim, {m: draw(coeffs) for m in s_masks})
    t = MixedForm(dim, {m: draw(coeffs) for m in sorted(t_masks)})
    return s, t


class TestMukaiFromComplements:
    @settings(max_examples=150, deadline=None)
    @given(mukai_pairs())
    def test_equals_the_wedge(self, st_pair):
        s, t = st_pair
        got = mukai_coeff(s, t)
        assert got == mukai_by_wedge(s, t) and type(got) is GaussRat
        assert mukai_coeff(t, s) == mukai_by_wedge(t, s)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_poly_coefficients(self, data):
        from gcgeo.charts import Chart
        from gcgeo.randgen import Rng

        chart = Chart.real("x", "y")
        rng = Rng(data.draw(st.integers(0, 10**6)))
        coeffs = st.builds(lambda: rng.poly(chart, 2, 2, complex_ok=True))
        s, t = data.draw(mukai_pairs(coeffs, max_dim=5))
        got, want = mukai_coeff(s, t), mukai_by_wedge(s, t)
        assert got == want and type(got) is type(want)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            mukai_coeff(MixedForm.one(3), MixedForm.one(4))
        with pytest.raises(ValueError, match="variance"):
            mukai_coeff(MixedForm.one(3), MixedForm.one(3, "mv"))


class TestEvalAt:
    def test_matches_each_coefficient_evaluated(self):
        from gcgeo.charts import Chart
        from gcgeo.randgen import Rng

        chart = Chart.real("x", "y", "z")
        rng = Rng(3)
        for _ in range(20):
            terms = {mask: rng.poly(chart, 3, 4, True) for mask in range(1, 8)}
            terms[0] = rng.gauss(3, True)
            phi = MixedForm(3, terms)
            p = chart.point(*(rng.gauss(3, True) for _ in range(3)))
            want = {mask: c.eval(p) for mask, c in phi.terms.items()}
            got = phi.eval_at(p)
            assert got.terms == {mask: c for mask, c in want.items() if c}
            assert all(type(c) is GaussRat for c in got.terms.values())
