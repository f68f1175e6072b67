"""The differential layer on a polynomial chart: d, d_H, brackets, frames.

Sections of T + T* carry the H-twisted Courant bracket in its derived form;
multivector fields carry the Schouten bracket.  Everything is a polynomial
identity over the chart ring, decided exactly.
"""

from __future__ import annotations

from .record import Record
from .scalars import GaussRat, Poly, add_term, as_gauss
from .forms import MixedForm, covector_form
from .clifford import GenVector
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
    eta_form = chart.lift_form(covector_form(m, eta))
    xi_form = chart.lift_form(covector_form(m, xi))
    cov_form = lie_derivative_form(chart, x, eta_form) - d(chart, xi_form).contract(y)
    if h is not None and h.form:
        cov_form = cov_form + h.form.contract(y).contract(x)
    cov = [chart.lift(cov_form.coeff(1 << i)) for i in range(m)]
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

def _interior_operator(chart: Chart, p_mv: MixedForm):
    def op(phi: MixedForm) -> MixedForm:
        return phi.contract_mv(p_mv)

    return op


def schouten(chart: Chart, p: MixedForm, q: MixedForm) -> MixedForm:
    """Schouten bracket of polynomial multivector fields.

    Realized through the de Rham derived bracket [[i_P, d], i_Q] and then
    dressed by (-1)^{(p-1)(q-1)}, which pins the convention to [X, Q] = L_X Q
    and the modular rescaling law X_{e^f v} = X_v + [beta, f].
    """
    if p.variance != "mv" or q.variance != "mv":
        raise ValueError("schouten expects multivector fields")
    if not p or not q:
        return MixedForm.zero(chart.dim, "mv")
    if not p.is_homogeneous() or not q.is_homogeneous():
        out = MixedForm.zero(chart.dim, "mv")
        for dp in p.degrees():
            for dq in q.degrees():
                out = out + schouten(chart, p.degree_part(dp), q.degree_part(dq))
        return out
    m = chart.dim
    pd, qd = p.min_degree(), q.min_degree()
    ip = _interior_operator(chart, p)
    iq = _interior_operator(chart, q)
    dd = lambda psi: d(chart, psi)
    # L_P = i_P d - (-1)^p d i_P, of parity p+1
    lp = lambda psi: ip(dd(psi)) - dd(ip(psi)).scale(GaussRat(-1) ** (pd % 2))

    def op(psi):
        # graded commutator [L_P, i_Q]
        sign = GaussRat(-1) ** (((pd - 1) * qd) % 2)
        return lp(iq(psi)) - iq(lp(psi)).scale(sign)

    deg = pd + qd - 1
    out_terms = {}
    lifted_one = chart.one()
    for mask in range(1 << m):
        if mask.bit_count() != deg:
            continue
        test = MixedForm(m, {mask: lifted_one})
        res = op(test)
        c = res.coeff(0)
        if c:
            out_terms[mask] = c
    result = MixedForm(m, out_terms, "mv")
    if ((pd - 1) * (qd - 1)) % 2:
        result = -result
    return result


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
        for i, u in enumerate(self.sections):
            for j in range(i, len(self.sections)):
                pr = u.pair(self.sections[j])
                if pr:
                    raise ValueError(
                        f"sections {i} and {j} have inner product {pr!r}, not identically 0"
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
    """T(e_i, e_j; e_k) = <[e_i, e_j]_H, e_k> for i < j and every k.

    All components vanish exactly iff the frame spans a Dirac structure.
    """
    chart = frame.chart
    out = {}
    secs = frame.sections
    for i in range(len(secs)):
        for j in range(i + 1, len(secs)):
            br = courant_bracket(chart, secs[i], secs[j], h)
            for k, w in enumerate(secs):
                out[(i, j, k)] = br.pair(w)
    return out


def is_involutive(frame: DiracFrame, h: ClosedThreeForm | None = None) -> bool:
    return all(not v for v in involutivity_tensor(frame, h).values())


def b_transform_section(chart: Chart, b_form: MixedForm, e: GenVector) -> GenVector:
    """X + xi -> X + xi + i_X B."""
    m = chart.dim
    extra = b_form.contract(e.vec)
    cov = [chart.lift(e.covec[i] + extra.coeff(1 << i)) for i in range(m)]
    return GenVector(m, e.vec, cov)
