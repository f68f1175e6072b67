"""Pullback of Dirac structures to graph submanifolds, generalized tangent
bundles of trivializations, and brane compatibility classification.

Submanifolds are polynomial graphs over a subset of chart coordinates (affine
subspaces are the degree-1 case).  Ambient objects restrict by substituting
the graph equations, so everything stays polynomial and exact; constant-rank
hypotheses are audited at sample points.
"""

from __future__ import annotations

from .record import Record
from .scalars import Poly, ONE, ZERO, IUNIT, as_gauss
from .forms import MixedForm, covector_form, two_form_from_map, map_from_two_form
from .clifford import GenVector
from .charts import Chart
from .fields import ClosedThreeForm, DiracFrame, d, involutivity_tensor
from .gcs import GCStructure
from .integrability import ansatz_polys, ansatz_system
from . import linalg


class NotSmooth(ValueError):
    """The pulled-back Dirac structure changes rank between sample points."""


class SubmanifoldData(Record, frozen=True):
    """A graph submanifold x_j = g_j(params) carrying a trivializing 2-form F.

    param_indices are the ambient coordinates restricting to coordinates on S;
    graph maps each remaining coordinate index to a polynomial over the
    parameter chart.  F lives on the parameter chart and must satisfy
    dF = i*H exactly.
    """

    ambient: Chart
    param_indices: tuple
    graph: dict
    f2: MixedForm | None = None
    h: ClosedThreeForm | None = None

    def __post_init__(self):
        m = self.ambient.dim
        if set(self.param_indices) | set(self.graph) != set(range(m)) or set(
            self.param_indices
        ) & set(self.graph):
            raise ValueError("param indices and graphed coordinates must partition the chart")
        s_chart = Chart(tuple(self.ambient.names[i] for i in self.param_indices))
        object.__setattr__(self, "_chart_s", s_chart)
        for g in self.graph.values():
            if g.vars != s_chart.names:
                raise ValueError("graph polynomials must live on the parameter chart")
        f2 = self.f2 if self.f2 is not None else MixedForm.zero(self.dim_s)
        if f2.dim != self.dim_s:
            raise ValueError("F must live on the submanifold chart")
        object.__setattr__(self, "f2", s_chart.lift_form(f2))
        target = (
            self.pull_form(self.h.form)
            if self.h is not None
            else MixedForm.zero(self.dim_s)
        )
        if d(s_chart, self.f2) - target:
            raise ValueError("dF != i*H: not a trivialization")

    def chart_s(self) -> Chart:
        """The parameter chart of S, built once in __post_init__."""
        return self._chart_s

    @property
    def dim_s(self) -> int:
        return len(self.param_indices)

    def _subs_map(self):
        return {self.ambient.names[j]: g for j, g in self.graph.items()}

    def restrict_scalar(self, p) -> Poly:
        s_chart = self.chart_s()
        if not isinstance(p, Poly):
            return Poly.const(s_chart.names, p)
        return p.subs_into(s_chart.names, self._subs_map())

    def pull_form(self, phi: MixedForm) -> MixedForm:
        """i* of an ambient form: substitute coordinates and dx_j = dg_j."""
        s_chart = self.chart_s()
        ds = self.dim_s
        images = []
        for i in range(self.ambient.dim):
            if i in self.param_indices:
                pos = self.param_indices.index(i)
                images.append(MixedForm(ds, {1 << pos: s_chart.one()}))
            else:
                g = self.graph[i]
                terms = {}
                for a, name in enumerate(s_chart.names):
                    dg = g.diff(name)
                    if dg:
                        terms[1 << a] = dg
                images.append(MixedForm(ds, terms))
        acc = MixedForm.zero(ds)
        for mask, c in phi.terms.items():
            term = MixedForm(ds, {0: self.restrict_scalar(c)})
            for i in range(self.ambient.dim):
                if mask & (1 << i):
                    term = term.wedge(images[i])
            acc = acc + term
        return acc

    def restrict_section(self, v: GenVector) -> GenVector:
        return GenVector(
            v.dim,
            [self.restrict_scalar(c) for c in v.vec],
            [self.restrict_scalar(c) for c in v.covec],
        )

    def restrict_matrix(self, mat):
        return [[self.restrict_scalar(x) for x in row] for row in mat]

    def tangent_lifts(self):
        """Pushforwards of the parameter coordinate frame, in ambient components."""
        s_chart = self.chart_s()
        out = []
        for a, name in enumerate(s_chart.names):
            comps = [s_chart.zero()] * self.ambient.dim
            comps[self.param_indices[a]] = s_chart.one()
            for j, g in self.graph.items():
                comps[j] = g.diff(name)
            out.append(comps)
        return out

    def conormals(self):
        """d(x_j - g_j): a frame of Ann(TS) in ambient components."""
        s_chart = self.chart_s()
        out = []
        for j in sorted(self.graph):
            comps = [s_chart.zero()] * self.ambient.dim
            comps[j] = s_chart.one()
            for a, name in enumerate(s_chart.names):
                dg = self.graph[j].diff(name)
                if dg:
                    comps[self.param_indices[a]] = -dg
            out.append(comps)
        return out

    def normal_residues(self, vec_comps):
        """Graph-direction residues of an ambient vector; zero iff tangent to S."""
        s_chart = self.chart_s()
        out = []
        for j in sorted(self.graph):
            acc = s_chart.lift(vec_comps[j])
            for a, name in enumerate(s_chart.names):
                dg = self.graph[j].diff(name)
                if dg:
                    acc = acc - dg * vec_comps[self.param_indices[a]]
            out.append(acc)
        return out

    def to_s_vector(self, vec_comps):
        return [vec_comps[i] for i in self.param_indices]


def whole_chart(chart: Chart, f2: MixedForm | None = None) -> SubmanifoldData:
    return SubmanifoldData(chart, tuple(range(chart.dim)), {}, f2)


# ---------------------------------------------------------------------------
# generalized tangent bundle
# ---------------------------------------------------------------------------

class GeneralizedTangent(Record, frozen=True):
    """Frame of tau = {X + eta in TS + T*M : i*eta = i_X F} over S."""

    sub: SubmanifoldData
    sections: tuple


def generalized_tangent(sub: SubmanifoldData) -> GeneralizedTangent:
    s_chart = sub.chart_s()
    m = sub.ambient.dim
    ds = sub.dim_s
    sections = []
    for a, lift in enumerate(sub.tangent_lifts()):
        unit = [s_chart.one() if b == a else s_chart.zero() for b in range(ds)]
        ix_f = sub.f2.contract(unit)
        cov = [s_chart.zero()] * m
        for b in range(ds):
            c = ix_f.coeff(1 << b)
            if c:
                cov[sub.param_indices[b]] = s_chart.lift(c)
        sections.append(GenVector(m, lift, cov))
    for conormal in sub.conormals():
        sections.append(GenVector(m, [s_chart.zero()] * m, conormal))
    tau = GeneralizedTangent(sub, tuple(sections))
    for u in tau.sections:
        for v in tau.sections:
            if u.pair(v):
                raise AssertionError("generalized tangent frame is not isotropic")
    return tau


# ---------------------------------------------------------------------------
# Dirac pullback
# ---------------------------------------------------------------------------

def _polynomial_kernel(s_chart: Chart, rows, ncols: int, samples, degree_bound: int):
    """Kernel generators of a polynomial matrix, by bounded-degree ansatz.

    The pointwise kernel dimension must agree across samples (constant rank).
    """
    kdims = {ncols - linalg.rank(linalg.eval_matrix(rows, p)) if rows else ncols for p in samples}
    if len(kdims) > 1:
        raise NotSmooth("rank jump across sample points: non-smooth pullback")
    slots = [{r: row[c] for r, row in enumerate(rows)} for c in range(ncols)]
    eq_rows, _, unknowns = ansatz_system(s_chart, slots, degree_bound)
    ker = linalg.kernel(eq_rows, len(unknowns))
    return [ansatz_polys(s_chart, k, unknowns, ncols) for k in ker]


class PullbackResult(Record, frozen=True):
    frame: DiracFrame
    twist: ClosedThreeForm | None
    involutivity: dict


def pullback_dirac(
    frame: DiracFrame,
    sub: SubmanifoldData,
    samples=None,
    degree_bound: int = 2,
) -> PullbackResult:
    """i*L = (L cap K-perp + K)/K on TS + T*S through the graph splitting.

    Involutivity is re-checked on S with the pulled-back twist.
    """
    s_chart = sub.chart_s()
    m = sub.ambient.dim
    ds = sub.dim_s
    if samples is None:
        samples = [s_chart.point(*([0] * ds)), s_chart.point(*([1] * ds))]
    restricted = [sub.restrict_section(u) for u in frame.sections]
    conditions = [sub.normal_residues(list(u.vec)) for u in restricted]
    rows = [list(col) for col in zip(*conditions)] if conditions else []
    gens = _polynomial_kernel(s_chart, rows, len(restricted), samples, degree_bound)
    projected = []
    for comps in gens:
        acc = GenVector(m, [s_chart.zero()] * m, [s_chart.zero()] * m)
        for c, u in zip(comps, restricted):
            if c:
                acc = acc + u.scale(c)
        vec_s = sub.to_s_vector(list(acc.vec))
        cov_form = sub.pull_form(covector_form(m, acc.covec))
        cov_s = [s_chart.lift(cov_form.coeff(1 << a)) for a in range(ds)]
        projected.append(GenVector(ds, vec_s, cov_s))
    # the pivot columns at a sample are the first generators independent there
    coords = linalg.transpose([u.coords() for u in projected])
    chosen = []
    for p in samples:
        chosen = [projected[j] for j in linalg.rref(linalg.eval_matrix(coords, p))[1]]
        if len(chosen) == ds:
            break
    if len(chosen) != ds:
        raise ValueError(
            f"pullback spans rank {len(chosen)} at samples, expected {ds}, "
            f"with kernel degree bound {degree_bound}"
        )
    twist = None
    if sub.h is not None:
        twist = ClosedThreeForm(s_chart, sub.pull_form(sub.h.form))
    out_frame = DiracFrame(s_chart, tuple(chosen), tuple(samples))
    invol = involutivity_tensor(out_frame, twist)
    return PullbackResult(frame=out_frame, twist=twist, involutivity=invol)


# ---------------------------------------------------------------------------
# brane compatibility
# ---------------------------------------------------------------------------

class BraneReport(Record, frozen=True):
    compatible: bool
    failures: tuple
    coisotropic: bool
    lagrangian: bool | None
    complex_stable: bool | None
    f_type_11: bool | None
    sigma_basic: bool | None
    space_filling_j: tuple | None
    space_filling_j_squared_ok: bool | None
    sigma_20: bool | None
    ell_frame_samples: tuple
    characteristic_samples: tuple


def brane_check(
    structure: GCStructure, sub: SubmanifoldData, samples=None
) -> BraneReport:
    """Classify a trivialization against a generalized complex structure.

    The core verdict is J(tau) = tau, decided as polynomial identities via the
    self-pairing of tau.  Case certificates are attached where the ambient
    structure is of pure symplectic or complex block type.
    """
    s_chart = sub.chart_s()
    m = sub.ambient.dim
    ds = sub.dim_s
    if samples is None:
        samples = [s_chart.point(*([0] * ds)), s_chart.point(*([1] * ds))]
    tau = generalized_tangent(sub)
    jmat = sub.restrict_matrix(structure.matrix())
    failures = []
    for idx, u in enumerate(tau.sections):
        ju = GenVector.from_coords(linalg.mat_vec(jmat, list(u.coords())))
        for jdx, w in enumerate(tau.sections):
            pr = ju.pair(w)
            if pr:
                failures.append((idx, jdx))
    compatible = not failures
    # block structure of the ambient J
    blocks = structure.blocks()
    symplectic_type = not any(map(any, blocks.a))
    complex_type = not any(map(any, blocks.b_map + blocks.beta_map))
    # coisotropy P(N*S) in TS at samples, and the characteristic distribution
    coiso = True
    char_samples = []
    pmap_r = sub.restrict_matrix(blocks.beta_map)
    for p in samples:
        pm = linalg.eval_matrix(pmap_r, p)
        char_rows = []
        for conormal in sub.conormals():
            xi = [as_gauss(c.eval(p)) for c in conormal]
            img = linalg.mat_vec(pm, xi)
            resid = sub.normal_residues([Poly.const(s_chart.names, c) for c in img])
            if any(r.eval(p) for r in resid):
                coiso = False
            if any(img):
                char_rows.append(tuple(img))
        char_samples.append(tuple(char_rows))
    # ell = ker(J - i) cap (tau x C) at samples
    ell_samples = []
    for p in samples:
        rows = [[as_gauss(c.eval(p)) for c in u.coords()] for u in tau.sections]
        jp = linalg.eval_matrix(jmat, p)
        images = [linalg.mat_vec(jp, r) for r in rows]
        coef_cols = [
            [images[s][i] - IUNIT * rows[s][i] for s in range(len(rows))]
            for i in range(2 * m)
        ]
        ker = linalg.kernel(coef_cols)
        ell_samples.append(tuple(map(tuple, linalg.mat_mul(ker, rows))))
    lagrangian = None
    sigma_basic = None
    complex_stable = None
    f_type_11 = None
    space_j = None
    space_j_sq = None
    sigma_20 = None
    if symplectic_type:
        omega_pull = sub.pull_form(two_form_from_map(blocks.b_map))
        if sub.graph:
            lagrangian = 2 * ds == m and not sub.f2 and not omega_pull
        sigma = sub.f2 + omega_pull.scale(IUNIT)
        sigma_basic = True
        dsigma = d(s_chart, sigma)
        for p, char_rows in zip(samples, char_samples):
            for xi_img in char_rows:
                xs = [as_gauss(x) for x in sub.to_s_vector(list(xi_img))]
                if sigma.eval_at(p).contract(xs) or dsigma.eval_at(p).contract(xs):
                    sigma_basic = False
        if not sub.graph and sub.f2:
            # with A = 0, J^2 = -1 gives P omega = -1 (validate_gc checks it
            # exactly), so -omega^-1 F is P F: nothing is inverted.  P is
            # reindexed to the parameter order, which F's basis follows
            idx = sub.param_indices
            p_s = [[pmap_r[i][k] for k in idx] for i in idx]
            jnew = linalg.mat_mul(p_s, s_chart.lift_matrix(map_from_two_form(sub.f2)))
            space_j = tuple(tuple(row) for row in jnew)
            jsq = linalg.mat_mul(jnew, jnew)
            space_j_sq = all(
                jsq[i][k] == (-ONE if i == k else ZERO)
                for i in range(m)
                for k in range(m)
            )
            if space_j_sq:
                # sigma is purely of one complex type for J; the orientation
                # (which eigenbundle counts as holomorphic) is convention
                for orient in (IUNIT, -IUNIT):
                    ok = True
                    for a in range(m):
                        ja = [jnew[i][a] for i in range(m)]
                        ua = [s_chart.one() if t == a else s_chart.zero() for t in range(m)]
                        if sigma.contract(ja) - sigma.contract(ua).scale(orient):
                            ok = False
                            break
                    if ok:
                        sigma_20 = True
                        break
                else:
                    sigma_20 = False
            else:
                sigma_20 = False
    if complex_type:
        jendo = sub.restrict_matrix([[-x for x in row] for row in blocks.a])
        complex_stable = True
        jl = []
        for lift in sub.tangent_lifts():
            img = linalg.mat_vec(jendo, list(lift))
            if any(bool(r) for r in sub.normal_residues(img)):
                complex_stable = False
            jl.append(img)
        f_type_11 = True
        for a in range(ds):
            for b in range(ds):
                ja = sub.to_s_vector(jl[a])
                jb = sub.to_s_vector(jl[b])
                ua = [s_chart.one() if t == a else s_chart.zero() for t in range(ds)]
                ub = [s_chart.one() if t == b else s_chart.zero() for t in range(ds)]
                lhs = sub.f2.contract(ja).contract(jb).coeff(0)
                rhs = sub.f2.contract(ua).contract(ub).coeff(0)
                if lhs - rhs:
                    f_type_11 = False
    return BraneReport(
        compatible=compatible,
        failures=tuple(failures[:8]),
        coisotropic=coiso,
        lagrangian=lagrangian,
        complex_stable=complex_stable,
        f_type_11=f_type_11,
        sigma_basic=sigma_basic,
        space_filling_j=space_j,
        space_filling_j_squared_ok=space_j_sq,
        sigma_20=sigma_20,
        ell_frame_samples=tuple(ell_samples),
        characteristic_samples=tuple(char_samples),
    )
