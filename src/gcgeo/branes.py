"""Pullback of Dirac structures to graph submanifolds, generalized tangent
bundles of trivializations, and brane compatibility classification.

Submanifolds are polynomial graphs over a subset of chart coordinates (affine
subspaces are the degree-1 case).  Ambient objects restrict by substituting
the graph equations, so everything stays polynomial and exact; constant-rank
hypotheses are audited at sample points.  `brane_check` decides the sample
block of a brane whose tau and J tau are constant once for all its samples,
and builds the rows of its ell kernel as gaussian integers on the integer
lane of `scalars`.
"""

from __future__ import annotations

from math import lcm

from .record import Record
from .scalars import Poly, ONE, IUNIT, ZERO, as_gauss, is_real, lane
from .forms import CapacityError, MixedForm, covector_form, two_form_from_map, map_from_two_form
from .clifford import GenVector, pairing_matrix
from .charts import Chart
from .fields import ClosedThreeForm, DiracFrame, d, involutivity_tensor
from .gcs import GCStructure
from .integrability import KERNEL_CAP, ansatz_polys, ansatz_system
from . import linalg


class NotSmooth(ValueError):
    """The pulled-back Dirac structure changes rank between sample points."""


class SubmanifoldData(Record, frozen=True):
    """A graph submanifold x_j = g_j(params) carrying a trivializing 2-form F.

    param_indices are the ambient coordinates restricting to coordinates on S;
    graph maps each remaining coordinate index to a real polynomial over the
    parameter chart.  F is a real 2-form on the parameter chart and must
    satisfy dF = i*H exactly.
    """

    ambient: Chart
    param_indices: tuple
    graph: dict
    f2: MixedForm | None = None
    h: ClosedThreeForm | None = None

    def __post_init__(self):
        m = self.ambient.dim
        params = self.param_indices
        if set(params) | set(self.graph) != set(range(m)) or set(params) & set(self.graph):
            raise ValueError("param indices and graphed coordinates must partition the chart")
        s_chart = Chart(tuple(self.ambient.names[i] for i in params))
        object.__setattr__(self, "_chart_s", s_chart)
        for g in self.graph.values():
            if g.vars != s_chart.names:
                raise ValueError("graph polynomials must live on the parameter chart")
        # the embedding Jacobian: row i holds dx_i/dt_a, a unit row for a
        # parameter and the gradient of g_i for a graphed coordinate.  Here,
        # in F's map, in restricted constants and in the conormals, constants
        # stay GaussRats, so products of constant matrices keep to GaussRat
        # arithmetic
        unit = linalg.identity(self.dim_s)
        jac = [
            [_constant(self.graph[i].diff(n)) for n in s_chart.names]
            if i in self.graph else unit[params.index(i)]
            for i in range(m)
        ]
        object.__setattr__(self, "_jac", jac)
        f2 = self.f2 if self.f2 is not None else MixedForm.zero(self.dim_s)
        if f2.dim != self.dim_s:
            raise ValueError("F must live on the submanifold chart")
        if any(mask.bit_count() != 2 for mask in f2.terms):
            raise ValueError("F must be a 2-form")
        if not all(map(is_real, f2.terms.values())):
            raise ValueError("F must be a real 2-form")
        if not all(map(is_real, self.graph.values())):
            raise ValueError("graph polynomials must be real")
        object.__setattr__(self, "f2", f2)
        object.__setattr__(self, "_f_map", [[_constant(x) for x in r] for r in map_from_two_form(f2)])
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

    def restrict_scalar(self, p):
        """p on S: a Poly over the parameter chart, or a GaussRat constant."""
        names = self.chart_s().names
        if not isinstance(p, Poly):
            return as_gauss(p)
        return p.subs_into(names, {self.ambient.names[j]: g for j, g in self.graph.items()})

    def pull_form(self, phi: MixedForm) -> MixedForm:
        """i* of an ambient form: substitute coordinates and dx_i = sum_a (dx_i/dt_a) dt_a.

        dx_i is dt_a for a parameter t_a = x_i, so those factors are relabelled: keyed a,
        before the graphed x_i keyed ds + i, and sorted with the sign of sorting the keys.
        The graphed gradients are then wedged on in ascending order.
        """
        ds, params = self.dim_s, self.param_indices
        images = {i: covector_form(ds, self._jac[i]) for i in self.graph}
        key = [params.index(i) if i in params else ds + i for i in range(self.ambient.dim)]
        acc = MixedForm.zero(ds)
        for mask, c in phi.terms.items():
            keys = [key[i] for i in range(self.ambient.dim) if mask >> i & 1]
            swaps = sum(x > y for n, x in enumerate(keys) for y in keys[n + 1:])
            c = self.restrict_scalar(c)
            blade = sum(1 << a for a in keys if a < ds)
            term = MixedForm(ds, {blade: -c if swaps & 1 else c})
            for a in keys:
                if a >= ds:
                    term = term.wedge(images[a - ds])
            acc = acc + term
        return acc

    def restrict_matrix(self, mat):
        return [[self.restrict_scalar(x) for x in row] for row in mat]

    def tangent_lifts(self):
        """Pushforwards of the parameter coordinate frame: the Jacobian's columns."""
        return linalg.transpose(self._jac)

    def conormals(self):
        """d(x_j - g_j): a frame of Ann(TS) in ambient components."""
        out = []
        for j in sorted(self.graph):
            comps = [ZERO] * self.ambient.dim
            comps[j] = ONE
            for i, dg in zip(self.param_indices, self._jac[j]):
                comps[i] = -dg
            out.append(comps)
        return out

    def to_s_vector(self, vec_comps):
        return [vec_comps[i] for i in self.param_indices]


def _constant(x):
    """x as a GaussRat when it is constant, else x itself."""
    return x.const_value() if x.is_const else x


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
    m = sub.ambient.dim
    rows = []
    for a, lift in enumerate(sub.tangent_lifts()):
        # (i_{e_a} F)_b is entry (b, a) of F's map
        cov = [ZERO] * m
        for i, f_row in zip(sub.param_indices, sub._f_map):
            cov[i] = f_row[a]
        rows.append(lift + cov)
    rows += [[ZERO] * m + conormal for conormal in sub.conormals()]
    if any(map(any, pairing_matrix(rows, rows))):
        raise AssertionError("generalized tangent frame is not isotropic")
    return GeneralizedTangent(sub, tuple(GenVector.from_coords(r) for r in rows))


# ---------------------------------------------------------------------------
# Dirac pullback
# ---------------------------------------------------------------------------

def _polynomial_kernel(s_chart: Chart, rows, ncols: int, samples, degree_bound: int):
    """Kernel generators of a polynomial matrix, by bounded-degree ansatz.

    The pointwise kernel dimension must agree across samples (constant rank).
    An ansatz above integrability.ANSATZ_CAP, or a kernel basis above
    integrability.KERNEL_CAP, raises CapacityError before it is built.
    """
    kdims = {ncols - linalg.rank(linalg.eval_matrix(rows, p)) if rows else ncols for p in samples}
    if len(kdims) > 1:
        raise NotSmooth("rank jump across sample points: non-smooth pullback")
    slots = [{r: row[c] for r, row in enumerate(rows)} for c in range(ncols)]
    eq_rows, unknowns = ansatz_system(s_chart, slots, degree_bound)
    try:
        ker = linalg.integer_kernel(eq_rows, len(unknowns), KERNEL_CAP)
    except CapacityError as e:
        raise CapacityError(f"the kernel at degree bound {degree_bound} has {e}") from None
    return [ansatz_polys(s_chart, k, unknowns, ncols) for k in ker]


class PullbackResult(Record, frozen=True):
    frame: DiracFrame
    twist: ClosedThreeForm | None
    involutivity: dict


def default_samples(s_chart: Chart) -> list:
    """The points of S checked when no samples are given: all zeros and all ones."""
    ds = s_chart.dim
    return [s_chart.point(*([0] * ds)), s_chart.point(*([1] * ds))]


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
        samples = default_samples(s_chart)
    restricted = sub.restrict_matrix([u.coords() for u in frame.sections])
    # a combination lies in K-perp iff the conormals annihilate its vector part
    rows = linalg.mat_mul(sub.conormals(), linalg.transpose([r[:m] for r in restricted]))
    gens = _polynomial_kernel(s_chart, rows, len(restricted), samples, degree_bound)
    combos = linalg.mat_mul(gens, restricted)
    # covectors pull back by the transposed Jacobian
    pulled = linalg.mat_mul([c[m:] for c in combos], sub._jac)
    projected = [
        GenVector(ds, sub.to_s_vector(c), cov) for c, cov in zip(combos, pulled)
    ]
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


def _sample_block(tau, jtau, p, m: int, ds: int):
    """(characteristic rows, ell frame) at the sample p.

    tau holds the ds tangent rows, then the conormal rows; jtau their images
    under J.  The characteristic rows are the nonzero vector parts of the
    conormal images there, and the ell frame spans ker(J - i) cap (tau x C).
    """
    rows = linalg.eval_matrix(tau, p)
    images = linalg.eval_matrix(jtau, p)
    p_images = [img[:m] for img in images[ds:]]
    char = tuple(tuple(v) for v in p_images if any(v))
    ker = linalg.integer_kernel(_ell_rows(images, rows), len(rows))
    return char, tuple(map(tuple, linalg.mat_mul(ker, rows)))


def _ell_rows(images, rows):
    """The rows of (J tau - i tau)^T as gaussian-integer rows {s: (u, v)}.

    Row k holds x - iy at column s, for x = images[s][k] and y = rows[s][k]
    (GaussRats).  Column k of each matrix is put on one lane, x = (a + bi)/L
    and y = (c + di)/M, so with N = lcm(L, M) the entry is N^-1 times
    (a N/L + d N/M) + (b N/L - c N/M) i; a row stands for the line it spans.
    """
    for xs, ys in zip(zip(*images), zip(*rows)):
        lx, xs = lane(xs)
        ly, ys = lane(ys)
        n = lcm(lx, ly)
        s, t = n // lx, n // ly
        row = {}
        for j, ((a, b), (c, d)) in enumerate(zip(xs, ys)):
            u, v = a * s + d * t, b * s - c * t
            if u or v:
                row[j] = u, v
        if row:
            yield row


def brane_check(
    structure: GCStructure, sub: SubmanifoldData, samples=None
) -> BraneReport:
    """Classify a trivialization against a generalized complex structure.

    The core verdict is J(tau) = tau: tau is maximal isotropic, so this is
    the vanishing of the pairing matrix [<J tau_i, tau_j>], as polynomial
    identities.  Case certificates are attached where the ambient structure
    is of pure symplectic or complex block type.

    Whether P(N*S) lies in TS is decided once, as polynomial identities:
    the conormals annihilate the vector parts of their images under J.  At
    each sample the report records the characteristic rows and a frame of
    ell = ker(J - i) cap (tau x C).  When tau and J tau hold no Poly, the
    sample block is decided once and every sample gets its result;
    otherwise it is evaluated sample by sample.  The rows of
    (J tau - i tau)^T go to `linalg.integer_kernel` as gaussian integers
    built from the lanes of their columns (`_ell_rows`).
    """
    s_chart = sub.chart_s()
    m = sub.ambient.dim
    ds = sub.dim_s
    if samples is None:
        samples = default_samples(s_chart)
    tau = [u.coords() for u in generalized_tangent(sub).sections]
    jmat = sub.restrict_matrix(structure.matrix())
    jtau = linalg.mat_mul(tau, linalg.transpose(jmat))
    failures = [
        (i, j)
        for i, row in enumerate(pairing_matrix(jtau, tau))
        for j, x in enumerate(row)
        if x
    ]
    # block structure of the ambient J
    blocks = structure.blocks()
    symplectic_type = not any(map(any, blocks.a))
    complex_type = not any(map(any, blocks.b_map + blocks.beta_map))
    # the conormal rows of tau are (0, xi), so the vector parts of their
    # images are P(N*S), in TS iff the conormals annihilate them
    resid = linalg.mat_mul(
        [img[:m] for img in jtau[ds:]], linalg.transpose([r[m:] for r in tau[ds:]])
    )
    # at each sample: the nonzero images span the characteristic
    # distribution, and ell is ker(J - i) cap (tau x C).  Without a Poly in
    # tau and J tau every sample gives the same matrices, so the block is
    # decided once
    if any(type(x) is Poly for row in tau + jtau for x in row):
        decided = [_sample_block(tau, jtau, p, m, ds) for p in samples]
    else:
        decided = [_sample_block(tau, jtau, samples[0], m, ds)] * len(samples) if samples else []
    char_samples = [char for char, _ in decided]
    ell_samples = [ell for _, ell in decided]
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
        dsigma = d(s_chart, sigma)
        sigma_basic = not any(
            form.eval_at(p).contract(sub.to_s_vector(v))
            for p, char_rows in zip(samples, char_samples)
            for v in char_rows
            for form in (sigma, dsigma)
        )
        if not sub.graph and sub.f2:
            # with A = 0, J^2 = -1 gives P omega = -1 (validate_gc checks it
            # exactly), so -omega^-1 F is P F: nothing is inverted.  P is
            # reindexed to the parameter order, which F's basis follows
            idx = sub.param_indices
            p_s = [[jmat[i][m + k] for k in idx] for i in idx]
            jnew = linalg.mat_mul(p_s, sub._f_map)
            space_j = tuple(map(tuple, jnew))
            space_j_sq = linalg.mat_eq(linalg.mat_mul(jnew, jnew), linalg.identity(m, -ONE))
            sigma_20 = False
            if space_j_sq:
                # sigma is purely of one complex type for J: sigma J = +-i
                # sigma as maps; the sign (which eigenbundle counts as
                # holomorphic) is convention
                smap = map_from_two_form(sigma)
                sj = linalg.mat_mul(smap, jnew)
                sigma_20 = any(
                    linalg.mat_eq(sj, linalg.mat_scale(smap, o)) for o in (IUNIT, -IUNIT)
                )
    if complex_type:
        # J_S e_a = J T e_a for the Jacobian T: S is J-stable iff the
        # conormals annihilate J T, and F is of type (1,1) iff J_S^T F J_S = F
        jt = linalg.mat_mul([[-x for x in row[:m]] for row in jmat[:m]], sub._jac)
        complex_stable = not any(map(any, linalg.mat_mul(sub.conormals(), jt)))
        j_s = [jt[i] for i in sub.param_indices]
        f_j = linalg.mat_mul(linalg.transpose(j_s), linalg.mat_mul(sub._f_map, j_s))
        f_type_11 = linalg.mat_eq(f_j, sub._f_map)
    return BraneReport(
        compatible=not failures,
        failures=tuple(failures[:8]),
        coisotropic=not any(map(any, resid)),
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
