"""Randomized identity suites: the Courant axioms, Jacobi form, and anomaly.

Shared by the command line (axiom-suite) and the acceptance tests; given the
same seed the cases are identical.
"""

from __future__ import annotations

from .record import Record, factory
from .scalars import Poly
from .forms import MixedForm
from .clifford import GenVector
from .charts import Chart
from .fields import (
    ClosedThreeForm,
    courant_bracket,
    d,
    derived_bracket_action,
    vf_bracket,
)
from .randgen import Rng


class SuiteResult(Record):
    cases: int
    checked: list = factory(list)
    failures: list = factory(list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _pi_star_d(chart: Chart, f: Poly) -> GenVector:
    m = chart.dim
    return GenVector(m, [chart.zero()] * m, [f.diff(n) for n in chart.names])


def run_axiom_suite(
    chart: Chart | None = None,
    cases: int = 100,
    seed: int = 0,
    degree: int = 2,
    check_anomaly: bool = True,
) -> SuiteResult:
    """Courant axioms C1-C5, the Jacobi identity, and the dH anomaly term.

    Each case draws a random triple of polynomial sections, a random function,
    and a random exact twist H = dB; the anomaly check swaps in a deliberately
    non-closed H and matches the defect against i_{pi e3} i_{pi e2} i_{pi e1} dH.
    """
    chart = chart or Chart.real("x", "y", "z")
    m = chart.dim
    rng = Rng(seed)
    result = SuiteResult(cases=cases)

    def record(name, ok, case_idx, detail=""):
        result.checked.append(name)
        if not ok:
            result.failures.append({"identity": name, "case": case_idx, "detail": detail})

    for idx in range(cases):
        e1 = rng.section(chart, degree)
        e2 = rng.section(chart, degree)
        e3 = rng.section(chart, degree)
        f = rng.poly(chart, degree, 2)
        b = rng.poly_two_form(chart, degree)
        h = ClosedThreeForm(chart, d(chart, b))
        br = lambda a, bb: courant_bracket(chart, a, bb, h)
        e12, e13 = br(e1, e2), br(e1, e3)
        # C1 (Leibniz/Jacobi form): [e1,[e2,e3]] = [[e1,e2],e3] + [e2,[e1,e3]];
        # the Jacobi identity below is the same expression with opposite sign
        jacobi_ok = (br(e12, e3) - br(e1, br(e2, e3)) + br(e2, e13)).is_zero()
        record("C1", jacobi_ok, idx)
        # C2: anchor compatibility
        lie = vf_bracket(chart, e1.vec, e2.vec)
        record("C2", all(not (a - bb) for a, bb in zip(e12.vec, lie)), idx)
        # C3: [e1, f e2] = f [e1, e2] + (pi(e1) f) e2
        fe2 = e2.scale(f)
        df_along = chart.zero()
        for t, name in enumerate(chart.names):
            df_along = df_along + e1.vec[t] * f.diff(name)
        rhs3 = e12.scale(f) + e2.scale(df_along)
        record("C3", (br(e1, fe2) - rhs3).is_zero(), idx)
        # C4: pi(e1) <e2,e3> = <[e1,e2],e3> + <e2,[e1,e3]>
        pr = e2.pair(e3)
        lhs4 = chart.zero()
        for t, name in enumerate(chart.names):
            lhs4 = lhs4 + e1.vec[t] * pr.diff(name)
        rhs4 = e12.pair(e3) + e2.pair(e13)
        record("C4", not (lhs4 - rhs4), idx)
        # C5: [e,e] = pi* d <e,e>
        lhs5 = br(e1, e1)
        rhs5 = _pi_star_d(chart, e1.pair(e1))
        record("C5", (lhs5 - rhs5).is_zero(), idx)
        # Jacobi identity in the bracket-of-brackets form
        record("jacobi", jacobi_ok, idx)
        if check_anomaly:
            # a non-closed 3-form needs at least four dimensions; top-degree
            # forms on a 3-chart are always closed
            ach = chart if m >= 4 else _ANOMALY_CHART
            am = ach.dim
            a1 = rng.section(ach, 1)
            a2 = rng.section(ach, 1)
            a3 = rng.section(ach, 1)
            hbad_form = rng.poly_two_form(ach, 1).wedge(
                MixedForm(am, {1 << (idx % am): ach.one()})
            )
            dh = d(ach, hbad_form)
            if not dh:
                # fall back to a twist that is certainly not closed
                hbad_form = MixedForm(am, {0b1110: ach.coord(0)})
                dh = d(ach, hbad_form)
            if dh:
                hb = _UncheckedTwist(ach, hbad_form)
                brb = lambda a, bb: courant_bracket(ach, a, bb, hb)
                anomaly = brb(brb(a1, a2), a3) - brb(a1, brb(a2, a3)) + brb(a2, brb(a1, a3))
                expected = dh.contract(a1.vec).contract(a2.vec).contract(a3.vec)
                ok = not any(anomaly.vec) and all(
                    not (anomaly.covec[i] - expected.coeff(1 << i)) for i in range(am)
                )
                record("anomaly", ok, idx)
    if check_anomaly and "anomaly" not in result.checked:
        result.failures.append(
            {"identity": "anomaly", "case": -1, "detail": "no non-closed twist drawn"}
        )
    return result


_ANOMALY_CHART = Chart.real("x", "y", "z", "w")


class _UncheckedTwist:
    """A degree-3 form used as a twist without the closedness certificate."""

    def __init__(self, chart: Chart, form: MixedForm):
        self.chart = chart
        self.form = form


def run_derived_bracket_suite(
    chart: Chart | None = None, cases: int = 50, seed: int = 0, degree: int = 2
) -> SuiteResult:
    """[[d_H, e1.], e2.] phi = [e1, e2]_H . phi on every basis form."""
    chart = chart or Chart.real("x", "y", "z")
    m = chart.dim
    rng = Rng(seed)
    result = SuiteResult(cases=cases)
    for idx in range(cases):
        e1 = rng.section(chart, degree)
        e2 = rng.section(chart, degree)
        b = rng.poly_two_form(chart, degree)
        h = ClosedThreeForm(chart, d(chart, b))
        br = courant_bracket(chart, e1, e2, h)
        ok = True
        for mask in range(1 << m):
            phi = MixedForm(m, {mask: chart.one()})
            if derived_bracket_action(chart, e1, e2, phi, h) - br.act(phi):
                ok = False
                break
        result.checked.append("derived-bracket")
        if not ok:
            result.failures.append({"identity": "derived-bracket", "case": idx})
    return result
