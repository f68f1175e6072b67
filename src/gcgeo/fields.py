"""The differential layer on a polynomial chart: d, d_H, brackets, frames.

Sections of T + T* carry the H-twisted Courant bracket, with its derived-bracket
operator on test forms; multivector fields carry the Schouten bracket in
coordinates.  Everything is a polynomial identity over the chart ring, decided
exactly.
"""

from __future__ import annotations

from .record import Record
from .scalars import HALF, Poly, add_term, as_gauss
from .forms import MixedForm, contract_sign, covector_form, merge_sign
from .clifford import GenVector, pairing_matrix
from .charts import Chart
from . import linalg


# ---------------------------------------------------------------------------
# exterior calculus
# ---------------------------------------------------------------------------

def d(chart: Chart, phi: MixedForm) -> MixedForm:
    """Exterior derivative of a polynomial-coefficient form.

    d(c e^mask) = sum over i not in mask of dc/dx_i e^i ^ e^mask, where moving
    e^i past the generators of mask below i gives the sign.
    """
    if phi.variance != "form":
        raise ValueError("d acts on forms")
    if phi.dim != chart.dim:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for mask, c in phi.terms.items():
        if not isinstance(c, Poly):
            continue
        for i, name in enumerate(chart.names):
            bit = 1 << i
            if mask & bit:
                continue
            dc = c.diff(name)
            if dc:
                add_term(out, mask | bit, -dc if (mask & (bit - 1)).bit_count() & 1 else dc)
    return MixedForm._raw(chart.dim, out, "form")


class ClosedThreeForm(Record, frozen=True):
    """A degree-3 twist; the computed residual dH is stored as the certificate."""

    chart: Chart
    form: MixedForm
    certificate: MixedForm = None

    def __post_init__(self):
        f = self.form
        if f and f.degrees() != [3]:
            raise ValueError("twist must be purely of degree 3")
        residual = d(self.chart, f)
        if residual:
            raise ValueError("twist is not closed: dH != 0")
        object.__setattr__(self, "certificate", residual)

    @classmethod
    def zero(cls, chart: Chart) -> "ClosedThreeForm":
        return cls(chart, MixedForm.zero(chart.dim))


def d_twisted(chart: Chart, phi: MixedForm, h: ClosedThreeForm | None) -> MixedForm:
    """d_H phi = d phi + H ^ phi."""
    out = d(chart, phi)
    if h is not None and h.form:
        out = out + h.form.wedge(phi)
    return out


def lie_derivative_form(chart: Chart, x_coeffs, phi: MixedForm) -> MixedForm:
    """Cartan formula L_X = d i_X + i_X d."""
    return d(chart, phi.contract(x_coeffs)) + d(chart, phi).contract(x_coeffs)


def vf_bracket(chart: Chart, x_coeffs, y_coeffs):
    """Lie bracket of vector fields, componentwise."""
    out = []
    for i in range(chart.dim):
        acc = chart.zero()
        xi, yi = x_coeffs[i], y_coeffs[i]
        for j, name in enumerate(chart.names):
            if yi and x_coeffs[j]:
                acc = acc + x_coeffs[j] * yi.diff(name)
            if xi and y_coeffs[j]:
                acc = acc - y_coeffs[j] * xi.diff(name)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Courant bracket
# ---------------------------------------------------------------------------

def courant_bracket(
    chart: Chart, e1: GenVector, e2: GenVector, h: ClosedThreeForm | None = None
) -> GenVector:
    """[X+xi, Y+eta]_H = [X,Y] + L_X eta - i_Y d xi + i_X i_Y H."""
    m = chart.dim
    x, xi = e1.vec, e1.covec
    y, eta = e2.vec, e2.covec
    vec = vf_bracket(chart, x, y)
    eta_form = covector_form(m, eta)
    xi_form = covector_form(m, xi)
    cov_form = lie_derivative_form(chart, x, eta_form) - d(chart, xi_form).contract(y)
    if h is not None and h.form:
        cov_form = cov_form + h.form.contract(y).contract(x)
    cov = [cov_form.coeff(1 << i) for i in range(m)]
    return GenVector(m, vec, cov)


def derived_bracket_action(
    chart: Chart,
    e1: GenVector,
    e2: GenVector,
    phi: MixedForm,
    h: ClosedThreeForm | None = None,
) -> MixedForm:
    """[[d_H, e1.], e2.] phi, the derived-bracket operator on a test form."""
    dh = lambda psi: d_twisted(chart, psi, h)
    a1 = lambda psi: e1.act(psi)
    a2 = lambda psi: e2.act(psi)
    # [d_H, e1.] is an anticommutator of odd operators
    inner = lambda psi: dh(a1(psi)) + a1(dh(psi))
    return inner(a2(phi)) - a2(inner(phi))


# ---------------------------------------------------------------------------
# Schouten bracket of multivector fields
# ---------------------------------------------------------------------------

def schouten(chart: Chart, p: MixedForm, q: MixedForm) -> MixedForm:
    """Schouten bracket of polynomial multivector fields, term by term.

    For P = p_I theta_I and Q = q_J theta_J, with theta_i = d/dx_i,
    [P, Q] = sum_{i in I} (-1)^{|I|-1} (d_{theta_i} P) ^ d_{x_i} Q
             - (-1)^{(|I|-1)(|J|-1)} (the same with P and Q swapped),
    where d_{theta_i} removes theta_i from the left.  This is the convention
    [X, Q] = L_X Q, which gives the modular rescaling law
    X_{e^f v} = X_v + [beta, f].
    """
    if p.variance != "mv" or q.variance != "mv":
        raise ValueError("schouten expects multivector fields")
    if p.dim != chart.dim or q.dim != chart.dim:
        raise ValueError("dimension mismatch")
    out: dict = {}
    for a, pa in p.terms.items():
        for b, qb in q.terms.items():
            _schouten_half(out, chart.names, a, pa, b, qb, 1)
            odd = (a.bit_count() - 1) * (b.bit_count() - 1) & 1
            _schouten_half(out, chart.names, b, qb, a, pa, 1 if odd else -1)
    return MixedForm._raw(chart.dim, out, "mv")


def _schouten_half(out: dict, names, a, pa, b, qb, sign):
    """Add sign * sum_{i in a} (-1)^{|a|-1} (d_{theta_i} pa theta_a) ^ d_{x_i} qb theta_b."""
    if not isinstance(qb, Poly):
        return
    if not a.bit_count() & 1:
        sign = -sign
    rem = a
    while rem:
        low = rem & -rem
        rem ^= low
        rest = a ^ low
        if rest & b:
            continue
        i = low.bit_length() - 1
        dq = qb.diff(names[i])
        if not dq:
            continue
        t = pa * dq
        if sign * contract_sign(a, i) * merge_sign(rest, b) < 0:
            t = -t
        add_term(out, rest | b, t)


def lie_derivative_mv(chart: Chart, x_coeffs, q: MixedForm) -> MixedForm:
    """L_X Q = [X, Q] for a vector field X given by components."""
    x = covector_form(chart.dim, x_coeffs, "mv")
    return schouten(chart, x, q)


# ---------------------------------------------------------------------------
# Dirac frames and involutivity
# ---------------------------------------------------------------------------

class DiracFrame(Record, frozen=True):
    """m polynomial sections spanning a pointwise maximal isotropic."""

    chart: Chart
    sections: tuple
    samples: tuple = ()

    def __post_init__(self):
        m = self.chart.dim
        if len(self.sections) != m:
            raise ValueError(f"frame needs {m} sections")
        coords = [u.coords() for u in self.sections]
        for i, row in enumerate(pairing_matrix(coords, coords)):
            for j in range(i, m):
                if row[j]:
                    raise ValueError(
                        f"sections {i} and {j} have inner product {HALF * row[j]!r}, "
                        "not identically 0"
                    )
        for p in self.samples:
            rows = [
                [as_gauss(c) for c in u.eval_at(p).coords()] for u in self.sections
            ]
            if linalg.rank(rows) != m:
                raise ValueError(f"frame drops rank at sample point {p}")


def involutivity_tensor(
    frame: DiracFrame, h: ClosedThreeForm | None = None
) -> dict:
    """The Courant tensor T(e_i, e_j, e_k) = <[e_i, e_j]_H, e_k> in Lambda^3 L*.

    The nonzero components with i < j < k, keyed by the mask of {i, j, k}.
    On an identically isotropic frame T is totally skew: axiom C4,
    pi(x)<y, z> = <[x, y], z> + <y, [x, z]>, with [x, x] = d<x, x> = 0.  So
    the frame spans a Dirac structure iff the result is empty.
    """
    chart = frame.chart
    secs = frame.sections
    m = len(secs)
    out = {}
    for i in range(m):
        for j in range(i + 1, m - 1):
            br = courant_bracket(chart, secs[i], secs[j], h)
            for k in range(j + 1, m):
                val = br.pair(secs[k])
                if val:
                    out[(1 << i) | (1 << j) | (1 << k)] = val
    return out


def is_involutive(frame: DiracFrame, h: ClosedThreeForm | None = None) -> bool:
    return not involutivity_tensor(frame, h)


def b_transform_section(chart: Chart, b_form: MixedForm, e: GenVector) -> GenVector:
    """X + xi -> X + xi + i_X B."""
    m = chart.dim
    extra = b_form.contract(e.vec)
    cov = [e.covec[i] + extra.coeff(1 << i) for i in range(m)]
    return GenVector(m, e.vec, cov)
