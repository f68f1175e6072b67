"""Field-level integrability: spinor witnesses, Nijenhuis tensors, deformations,
modular vector fields and Hamiltonian symmetries.

The witness solver first solves d_H phi = (X + xi) . phi pointwise at sample
points, where an unsolvable point decides failure.  It then turns the equation
into exact linear systems over the unknown polynomial coefficients of X + xi,
at degree bounds 0, 1, ... up to a bound, and stops at the first that solves.

Both stages hand `linalg.integer_solve` rows of gaussian integers
{column: (a, b)}, with the right-hand side at the column after the last
unknown, and read back only that column of each pivot row.  At a sample p,
phi(p) and d_H phi(p) go on one integer lane and the rows are those of
v . phi(p) = 0 (`isotropics._action_rows`) with d_H phi(p) on the right.
The ansatz rows (`ansatz_system`) are the coefficients of the slots and the
target scaled by one L, the lcm of their denominators, read off the integers
of each Poly.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, lcm

from .record import Record
from .scalars import Poly, ZERO, as_gauss, lane, pack, poly_lane
from .forms import CapacityError, MixedForm, covector_form, map_from_two_form
from .clifford import GenVector
from .charts import Chart
from .fields import (
    ClosedThreeForm,
    DiracFrame,
    courant_bracket,
    d,
    d_twisted,
    schouten,
)
from .gcs import GCStructure, validate_gc
from .isotropics import _action_rows
from . import linalg


# The largest ansatz that ansatz_system builds, as a bound on rows x unknowns.
# An unsolvable ansatz near the cap takes seconds to eliminate (5.5e8: 3 s,
# 1.9e9: 13 s on a 2-core machine); far above it, hours.
ANSATZ_CAP = 10**9
# The largest kernel basis, as nullity x unknowns, that an ansatz solver
# builds.  The pullback of cases/pullback_graph_b.json at degree bound 80
# eliminates in about 1 s but has 6,642 x 13,284 basis entries, which took
# about 20 s and 0.7 GB to build on a 2-core machine; bound 45 (9.3e6
# entries, about 3 s) stays under the cap.
KERNEL_CAP = 10**7


def monomials_up_to(chart: Chart, bound: int):
    """All exponent tuples of total degree <= bound, in a stable order."""
    names = chart.names
    out = [tuple([0] * len(names))]
    for deg in range(1, bound + 1):
        for combo in combinations_with_replacement(range(len(names)), deg):
            e = [0] * len(names)
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def ansatz_system(chart: Chart, slots, degree_bound: int, target=None):
    """Gaussian-integer rows of sum_{(s, e)} u_{s,e} x^e slots[s] = target, by coefficients.

    slots[s] and target map keys (form masks, matrix rows) to scalars or Polys.
    Unknown (s, e) multiplies slot s by the monomial x^e; unknowns run
    slot-major, then in monomials_up_to order.  There is one row
    {unknown: (a, b)} per (key, exponent) that occurs, and the target's
    coefficient of that (key, exponent), if nonzero, sits at the right-hand
    column len(unknowns), as `linalg.integer_solve` takes them.  Every
    coefficient is read off the integers of its Poly (`poly_lane`) and
    scaled by one L, the lcm of the denominators of the slots and the
    target, so each entry a + bi is L times the coefficient, a and b
    integers, and the rows have the solutions of the system.  Without a
    target no row has a right-hand entry, and `linalg.integer_kernel` takes
    the rows as they are.  Returns (rows, unknowns).  Raises CapacityError,
    before building anything, when the system may have more than ANSATZ_CAP
    rows x unknowns.
    """
    def lane_of(c):
        """(q, {packed exponent: (a, b)}) of a Poly or of a scalar constant."""
        if isinstance(c, Poly):
            return poly_lane(c)
        g = as_gauss(c)
        return g.q, ({0: (g.a, g.b)} if g else {})

    slots = [[(key, lane_of(c)) for key, c in slot.items()] for slot in slots]
    target = [(key, lane_of(c)) for key, c in (target or {}).items()]
    lc = lcm(*[q for slot in slots for _, (q, _) in slot], *[q for _, (q, _) in target])

    def scaled(lanes):
        """Each (key, (q, nums)) as (key, {exponent: L times its coefficient})."""
        out = []
        for key, (q, nums) in lanes:
            s = lc // q
            if s != 1:
                nums = {e: (a * s, b * s) for e, (a, b) in nums.items()}
            out.append((key, nums))
        return out

    slots = [scaled(slot) for slot in slots]
    target = scaled(target)
    n_monos = comb(chart.dim + degree_bound, chart.dim)
    # rows are (key, exponent) pairs: at most one per term of a slot
    # coefficient per monomial, plus one per term of the target
    exps = {}
    for slot in slots:
        for key, cterms in slot:
            exps.setdefault(key, set()).update(cterms)
    slot_terms = sum(map(len, exps.values()))
    target_terms = sum(len(cterms) for _, cterms in target)
    rows_max, unknowns_max = slot_terms * n_monos + target_terms, len(slots) * n_monos
    if rows_max * unknowns_max > ANSATZ_CAP:
        raise CapacityError(
            f"the ansatz at degree bound {degree_bound} has up to {rows_max} x "
            f"{unknowns_max} rows x unknowns, above the cap {ANSATZ_CAP}"
        )
    monos = monomials_up_to(chart, degree_bound)
    unknowns = [(s, e) for s in range(len(slots)) for e in monos]
    # rows are keyed by packed exponents: a sum of two packed keys is only
    # compared, never stored in a Poly, so a guard bit it sets does no harm
    monos = [pack(e, chart.dim) for e in monos]
    rows = {}
    u = 0
    for slot in slots:
        for e in monos:
            for key, cterms in slot:
                for t, x in cterms.items():
                    rows.setdefault((key, e + t), {})[u] = x
            u += 1
    rhs = len(unknowns)
    for key, cterms in target:
        for t, x in cterms.items():
            rows.setdefault((key, t), {})[rhs] = x
    return list(rows.values()), unknowns


def ansatz_polys(chart: Chart, coeffs, unknowns, nslots: int):
    """The nslots polynomials sum_e coeffs[(s, e)] x^e of an ansatz solution."""
    terms = [{} for _ in range(nslots)]
    for c, (s, e) in zip(coeffs, unknowns):
        terms[s][e] = c
    return [Poly(chart.names, t) for t in terms]


class NotPoisson(ValueError):
    """The bivector of a modular field problem has [beta, beta] != 0."""


class WitnessReport(Record, frozen=True):
    verdict: str  # "pass" | "fail" | "inconclusive"
    witness: GenVector | None
    degree_bound: int
    detail: str
    counterexample: dict | None = None


def _basis_frame(m: int) -> list:
    """The 2m constant sections d/dx_1..d/dx_m, dx_1..dx_m of T + T*."""
    return [GenVector.basis_vector(m, i) for i in range(m)] + [
        GenVector.basis_covector(m, i) for i in range(m)
    ]


def _frame_slots(phi: MixedForm) -> list:
    """The terms of u . phi for u in `_basis_frame`, read off phi.

    d/dx_i . phi = i_{d/dx_i} phi and dx_i . phi = dx_i ^ phi move a blade J
    of phi to J ^ {i}, contraction when J holds i and wedge when it does not,
    with the sign (-1)^#{bits of J below i}.  Blades come in the order of
    phi's terms, as `GenVector.act` gives them.
    """
    m = phi.dim
    slots = [{} for _ in range(2 * m)]
    for mask, c in phi.terms.items():
        neg = None
        for i in range(m):
            bit = 1 << i
            x = c
            if (mask & (bit - 1)).bit_count() & 1:
                if neg is None:
                    neg = -c
                x = neg
            slots[i if mask & bit else m + i][mask ^ bit] = x
    return slots


def _sample_rows(phi_p: MixedForm, target_p: MixedForm):
    """Rows of sum_j x_j (u_j . phi_p) = target_p over `_basis_frame`, augmented.

    phi_p and target_p are constant forms, put on one integer lane.  The
    rows are those of v . phi_p = 0 (`isotropics._action_rows`), columns
    0..2m-1, with target_p's coefficient of each blade at column 2m; a blade
    that only the target reaches gives the row {2m: t}.
    """
    n = len(phi_p.terms)
    pairs = lane([*phi_p.terms.values(), *target_p.terms.values()])[1]
    return _action_rows(
        dict(zip(phi_p.terms, pairs[:n])), phi_p.dim, dict(zip(target_p.terms, pairs[n:]))
    )


def _default_samples(chart: Chart):
    pts = [chart.point(*([0] * chart.dim))]
    for i in range(chart.dim):
        coords = [0] * chart.dim
        coords[i] = 1
        pts.append(chart.point(*coords))
    pts.append(chart.point(*([1] * chart.dim)))
    return pts


def check_spinor_integrability(
    chart: Chart,
    phi: MixedForm,
    h: ClosedThreeForm | None = None,
    witness: GenVector | None = None,
    degree_bound: int | None = None,
    samples=None,
) -> WitnessReport:
    """Decide d_H phi = (X + xi) . phi with a polynomial witness.

    A supplied witness is verified identically.  Otherwise a zero target
    passes with the zero witness at degree bound 0.  Next the pointwise
    equation is solved at each sample point: a polynomial witness would solve
    it at every point, so an unsolvable sample is a failure, reported with the
    full degree bound.  Only then is an ansatz of total coefficient degree
    <= b solved exactly, for b = 0, 1, ... up to degree_bound (default: max
    coefficient degree of phi plus deg H plus 1); a pass reports the smallest
    b that solved.  No witness up to degree_bound, or an ansatz above
    ANSATZ_CAP rows x unknowns, is inconclusive.
    """
    m = chart.dim
    target = d_twisted(chart, phi, h)
    if witness is not None:
        residual = target - witness.act(phi)
        if not residual:
            return WitnessReport("pass", witness, 0, "supplied witness verified identically")
        return WitnessReport(
            "fail",
            None,
            0,
            "supplied witness does not satisfy the identity",
            counterexample={"residual_masks": sorted(residual.terms)},
        )
    if not target:
        zero = [chart.zero()] * m
        return WitnessReport(
            "pass", GenVector(m, zero, zero), 0, "witness solved with degree bound 0"
        )
    if degree_bound is None:
        pdeg = max((c.total_degree() for c in phi.terms.values()), default=0)
        hdeg = 0
        if h is not None and h.form:
            hdeg = max((c.total_degree() for c in h.form.terms.values()), default=0)
        degree_bound = pdeg + hdeg + 1
    samples = samples if samples is not None else _default_samples(chart)
    for p in samples:
        phi_p = phi.eval_at(p)
        if not phi_p:
            continue
        if linalg.integer_solve(_sample_rows(phi_p, target.eval_at(p)), 2 * m) is None:
            return WitnessReport(
                "fail",
                None,
                degree_bound,
                "pointwise equation unsolvable: structure is not integrable",
                counterexample={
                    "point": {k: repr(v) for k, v in p.items()},
                    "identity": "d_H phi = (X + xi) . phi",
                },
            )
    slots = _frame_slots(phi)
    for b in range(degree_bound + 1):
        try:
            rows, unknowns = ansatz_system(chart, slots, b, target.terms)
        except CapacityError as e:
            return WitnessReport(
                "inconclusive",
                None,
                b,
                f"{e}; no witness of lower degree and no pointwise obstruction found",
            )
        sol = linalg.integer_solve(rows, len(unknowns))
        if sol is not None:
            polys = ansatz_polys(chart, sol, unknowns, 2 * m)
            w = GenVector(m, polys[:m], polys[m:])
            if target - w.act(phi):
                raise AssertionError("solver produced an invalid witness")
            return WitnessReport("pass", w, b, f"witness solved with degree bound {b}")
    return WitnessReport(
        "inconclusive",
        None,
        degree_bound,
        f"no polynomial witness up to degree {degree_bound}; no pointwise obstruction found",
    )


# ---------------------------------------------------------------------------
# Nijenhuis tensor of a structure field
# ---------------------------------------------------------------------------

def nijenhuis_field(chart: Chart, s: GCStructure, h: ClosedThreeForm | None = None):
    """N(e_a, e_b) over the coordinate frame of T + T*, as GenVector components."""
    m = chart.dim
    jmat = s.matrix()

    def japply(v: GenVector) -> GenVector:
        return GenVector.from_coords(linalg.mat_vec(jmat, v.coords()))

    frame = _basis_frame(m)
    out = {}
    for a in range(2 * m):
        for b in range(a + 1, 2 * m):
            u, v = frame[a], frame[b]
            ju, jv = japply(u), japply(v)
            n = (
                courant_bracket(chart, ju, jv, h)
                - japply(courant_bracket(chart, ju, v, h))
                - japply(courant_bracket(chart, u, jv, h))
                - courant_bracket(chart, u, v, h)
            )
            out[(a, b)] = n
    return out


def nijenhuis_vanishes(components: dict) -> bool:
    return all(v.is_zero() for v in components.values())


# ---------------------------------------------------------------------------
# deformation by a holomorphic bivector
# ---------------------------------------------------------------------------

class DeformationResult(Record, frozen=True):
    structure: GCStructure
    spinor: MixedForm
    frame: DiracFrame
    beta_mv: MixedForm


def holomorphic_bivector(chart: Chart, components: dict) -> MixedForm:
    """(2,0) bivector sum f_{ab} del_{z_a} ^ del_{z_b} from {(a, b): Poly}."""
    m = chart.dim
    acc = MixedForm.zero(m, "mv")
    for (a, b), f in components.items():
        za = chart.del_z(a)
        zb = chart.del_z(b)
        blade = covector_form(m, za.vec, "mv").wedge(covector_form(m, zb.vec, "mv"))
        acc = acc + blade.map_coeffs(lambda c: f * c)
    return acc


def deform_by_bivector(
    chart: Chart, base: GCStructure, beta_mv: MixedForm
) -> DeformationResult:
    """J_beta = exp(beta + conj beta) J exp(-(beta + conj beta)), plus spinor and frame.

    The base structure must be of complex type (diagonal blocks only) and the
    bivector of type (2,0) with respect to the chart pairing.
    """
    m = chart.dim
    real_mv = beta_mv + beta_mv.conj()
    bmap = map_from_two_form(real_mv) if real_mv else linalg.zeros(m, m)
    one, zero = linalg.identity(m), linalg.zeros(m, m)
    e = linalg.from_blocks(one, bmap, zero, one)
    einv = linalg.from_blocks(one, [[-x for x in row] for row in bmap], zero, one)
    jb = linalg.mat_mul(e, linalg.mat_mul(base.matrix(), einv))
    s = validate_gc(jb)
    # canonical spinor of the base complex structure, deformed by contraction
    omega = MixedForm.one(m)
    for k in range(chart.n_complex):
        omega = omega.wedge(chart.dz(k))
    spinor = omega.exp_contract(beta_mv)
    # explicit eigenbundle frame: T_{0,1} plus the graph of beta over T*_{1,0}
    sections = [chart.del_zbar(k) for k in range(chart.n_complex)]
    for k in range(chart.n_complex):
        dzk = chart.dz(k)
        cov = [dzk.coeff(1 << i) for i in range(m)]
        vec_part = beta_mv.contract(cov)
        vec = [vec_part.coeff(1 << i) for i in range(m)]
        sections.append(GenVector(m, vec, cov))
    frame = DiracFrame(chart, tuple(sections))
    return DeformationResult(structure=s, spinor=spinor, frame=frame, beta_mv=beta_mv)


def deform_graph_pointwise(s: GCStructure, eps_matrix) -> GCStructure:
    """Deform a constant structure by eps in Lambda^2 L*, as the graph (1+eps)L.

    eps_matrix is antisymmetric over an eigenbundle frame; the invertibility of
    the induced endomorphism (1 on L, eps off-diagonal) is checked exactly.
    """
    from .isotropics import canonical_form
    from .gcs import eigenbundle, gc_from_pure_spinor
    from .isotropics import pure_spinor_line

    lft = eigenbundle(s)
    m = s.dim
    basis = list(lft.basis)
    if len(eps_matrix) != m or any(len(r) != m for r in eps_matrix):
        raise ValueError("eps must be m x m over the eigenbundle frame")
    if not linalg.is_antisymmetric(eps_matrix):
        raise ValueError("eps must be antisymmetric")
    conj_basis = [v.conj() for v in basis]
    # dual frame of conj_basis against basis: <conj_i, basis_j> gram
    gram = [[cb.pair(b) for b in basis] for cb in conj_basis]
    ginv = linalg.inverse(gram)
    # eps sends basis_j to sum_k eps(j, k) lambda^k, lambda^k realized in conj frame
    dual = []
    for k in range(m):
        coords = [ZERO] * (2 * m)
        for t in range(m):
            for c_idx in range(2 * m):
                coords[c_idx] = coords[c_idx] + ginv[t][k] * conj_basis[t].coords()[c_idx]
        dual.append(GenVector.from_coords(coords))
    new_basis = []
    for j in range(m):
        w = basis[j]
        for k in range(m):
            if eps_matrix[j][k]:
                w = w + dual[k].scale(eps_matrix[j][k])
        new_basis.append(w)
    new_l = canonical_form(new_basis, m)
    if new_l.conj_intersection_dim():
        raise ValueError("deformation is singular: graph meets its conjugate")
    phi = pure_spinor_line(new_l)
    return gc_from_pure_spinor(phi)


# ---------------------------------------------------------------------------
# modular vector field
# ---------------------------------------------------------------------------

def modular_vector_field(
    chart: Chart,
    beta_mv: MixedForm,
    volume: MixedForm,
    log_factor: Poly | None = None,
    degree_bound: int | None = None,
):
    """X with d phi + d(f) ^ phi = X . phi for phi = exp(beta) . volume.

    For the volume e^f g dx_1 ^ ... ^ dx_m, X is the divergence of beta
    (Weinstein's modular field):
    X^j = -(1/g) sum_i d_i(g beta^{ij}) - sum_i beta^{ij} d_i f.
    The bivector must be 2-homogeneous and Poisson, and the volume a single
    top-degree blade.  X is polynomial of degree <= degree_bound, or no
    such field exists; the identity above is checked exactly.
    """
    m = chart.dim
    if any(mask.bit_count() != 2 for mask in beta_mv.terms):
        raise ValueError("bivector must be homogeneous of degree 2")
    if schouten(chart, beta_mv, beta_mv):
        raise NotPoisson("bivector is not Poisson: [beta, beta] != 0")
    if not volume:
        raise ValueError("volume form is zero")
    top = (1 << m) - 1
    if list(volume.terms) != [top]:
        raise ValueError("volume must be a single top-degree blade")
    f = log_factor if log_factor is not None else chart.zero()
    phi = volume.exp_contract(beta_mv)
    if degree_bound is None:
        pdeg = max((c.total_degree() for c in phi.terms.values()), default=0)
        degree_bound = pdeg + f.total_degree() + 1
    g = volume.terms[top]
    df = [f.diff(n) for n in chart.names]
    vec = []
    # row j of map_from_two_form(beta) holds beta^{ij}, i = 0..m-1
    for row in map_from_two_form(beta_mv):
        div = sum(((g * b).diff(n) for b, n in zip(row, chart.names)), chart.zero())
        xj = (-div).divide(g)
        if xj is not None:
            xj = xj - sum((b * c for b, c in zip(row, df)), chart.zero())
        if xj is None or xj.total_degree() > degree_bound:
            raise ValueError(f"no polynomial modular field up to degree {degree_bound}")
        vec.append(xj)
    x = GenVector(m, vec, [ZERO] * m)
    if x.act(phi) != d(chart, phi) + covector_form(m, df).wedge(phi):
        raise AssertionError("modular field fails d phi + df ^ phi = X . phi")
    return x


# ---------------------------------------------------------------------------
# Hamiltonian symmetries
# ---------------------------------------------------------------------------

def hamiltonian_section(chart: Chart, s: GCStructure, f_re: Poly, f_im: Poly) -> GenVector:
    """Df = d(Re f) - J d(Im f)."""
    m = chart.dim
    d_re = [f_re.diff(n) for n in chart.names]
    d_im = [f_im.diff(n) for n in chart.names]
    jdim = linalg.mat_vec(s.matrix(), [ZERO] * m + d_im)
    vec = [-jdim[i] for i in range(m)]
    cov = [d_re[i] - jdim[m + i] for i in range(m)]
    return GenVector(m, vec, cov)


def is_symmetry(
    chart: Chart,
    section: GenVector,
    frame: DiracFrame,
    h: ClosedThreeForm | None = None,
) -> bool:
    """[v, frame of L] stays in L, checked via self-orthogonality of L.

    <[v, u_j], u_k> is skew in (j, k) on an isotropic frame (axiom C4), so
    only the pairs k > j are checked.
    """
    secs = frame.sections
    for j, u in enumerate(secs[:-1]):
        br = courant_bracket(chart, section, u, h)
        if any(br.pair(w) for w in secs[j + 1:]):
            return False
    return True
