"""The four benchmark workloads as cycles of operations with known answers.

A cycle is a fixed list of operation kinds; the seed draws fresh inputs for
every cycle.  Each operation has a `run` (the timed call into gcgeo, which
returns the verdict-bearing result) and a `check` (run outside the timed
region) that compares the result against an answer fixed when the input was
planted.  Known-fail inputs return the verdict "fail" from `run`, catching
only the exception that the program documents for that failure.

gcgeo is always reached through module attributes at call time (`gcs.x`,
never a bound name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from gcgeo import algebroid, branes, fields, forms, gcs, integrability, isotropics, suites
from gcgeo.charts import Chart
from gcgeo.clifford import BlockTransform, GenVector
from gcgeo.forms import MixedForm
from gcgeo.scalars import IUNIT, ONE, ZERO, GaussRat

import oracle
from gen import Gen


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _verdict_of(fn, exc):
    """Run fn; the documented exception type is the known-fail verdict."""

    def run():
        try:
            fn()
        except exc:
            return "fail"
        return "pass"

    return run


# ---------------------------------------------------------------------------
# pointwise: constant structures, small dense exact linear algebra over Q(i)
# ---------------------------------------------------------------------------

# Chosen so the median falls among the 4-6 ms operations (m = 4 Darboux,
# m = 6 round trips), with as many cheaper operations as dearer ones, and the
# tail inside the m = 8, k = 1, 2 Darboux group.
POINTWISE_DARBOUX = {"full": [(4, 0), (4, 1), (4, 2), (6, 0), (6, 1), (6, 1), (6, 2), (6, 2),
                              (6, 3), (8, 0), (8, 1), (8, 1), (8, 2), (8, 2), (8, 3), (8, 4)],
                     "toy": [(4, 0), (4, 1), (4, 2)]}
POINTWISE_SPINOR_DIMS = {"full": (4, 6, 6, 6, 6), "toy": (4,)}
POINTWISE_TENSOR_DIMS = {"full": (4, 6), "toy": (4,)}
POINTWISE_FAIL_DIM = {"full": 6, "toy": 4}


def _darboux_op(g: Gen, m: int, k: int) -> Op:
    s = g.gc_structure(m, k, dense=True)

    def check(data):
        regen = (data.btilde + data.omega0.scale(IUNIT)).exp_wedge().wedge(data.omega_k)
        return data.k == k and regen.proportional_to(data.generator)

    return Op(f"darboux_m{m}", lambda: gcs.darboux_point(s), check)


def _round_trip_op(g: Gen, m: int) -> Op:
    planted = g.isotropic(m, dense=True)

    def run():
        return isotropics.max_isotropic_from_spinor(isotropics.pure_spinor_line(planted))

    return Op(f"spinor_round_trip_m{m}", run, lambda got: got.equals(planted))


def _tensor_ops(g: Gen, m: int) -> list:
    iso = isotropics
    ops = []
    L = g.isotropic(m)
    ops.append(Op(f"tensor_cotangent_m{m}",
                  lambda: iso.tensor_product(iso.cotangent_space(m), L),
                  lambda got: got.equals(iso.cotangent_space(m))))
    b1 = forms.two_form_from_map(g.antisym(m, 2, True))
    b2 = forms.two_form_from_map(g.antisym(m, 2, True))
    g1, g2, g12 = (iso.graph_of_two_form(b) for b in (b1, b2, b1 + b2))
    ops.append(Op(f"tensor_graphs_m{m}",
                  lambda: iso.tensor_product(g1, g2),
                  lambda got: got.equals(g12)))
    cut = g.r.randint(0, m)
    basis = [GenVector.basis_vector(m, i) for i in range(cut)] + [
        GenVector.basis_covector(m, i) for i in range(cut, m)
    ]
    fol = iso.canonical_form(basis, m)
    ops.append(Op(f"tensor_idempotent_m{m}",
                  lambda: iso.tensor_product(fol, fol),
                  lambda got: got.equals(fol)))
    s = g.gc_structure(m, g.r.randint(0, m // 2), kinds=("B", "beta", "gl"))
    pmap, _ = gcs.poisson_of(s)
    half_i = GaussRat(0, Fraction(1, 2))
    graph = [
        GenVector(m, [half_i * pmap[i][j] for i in range(m)],
                  [ONE if i == j else ZERO for i in range(m)])
        for j in range(m)
    ]
    want = iso.canonical_form(graph, m)

    def run_poisson():
        eig = gcs.eigenbundle(s)
        return iso.tensor_product(eig.flip(), eig.conj())

    ops.append(Op(f"tensor_poisson_m{m}", run_poisson, lambda got: got.equals(want)))
    return ops


def _bad_square_op(g: Gen, m: int) -> Op:
    """lambda*J with lambda^2 != 1, so J^2 = -lambda^2 != -1."""
    j = g.gc_structure(m, g.r.randint(0, m // 2)).matrix()
    lam = GaussRat(g.r.choice([2, 3, Fraction(1, 2), Fraction(3, 2)]))
    bad = [[lam * x for x in row] for row in j]
    return Op(f"validate_bad_square_m{m}",
              _verdict_of(lambda: gcs.validate_gc(bad), gcs.InvalidStructure),
              lambda v: v == "fail")


def _non_isotropic_op(g: Gen, m: int) -> Op:
    """Shear one basis vector off L so that it pairs nontrivially with itself."""
    vecs = list(g.isotropic(m).basis)
    eps = GaussRat(g.frac(2, nonzero=True))
    for idx, v in enumerate(vecs):
        k = next((i for i, c in enumerate(v.vec) if c), None)
        if k is not None:
            cov = list(v.covec)
            cov[k] = cov[k] + eps  # <v', v'> = eps * X_k != 0
            vecs[idx] = GenVector(m, v.vec, cov)
            break
    else:
        v = vecs[0]
        k = next(i for i, c in enumerate(v.covec) if c)
        vec = list(v.vec)
        vec[k] = vec[k] + eps
        vecs[0] = GenVector(m, vec, v.covec)
    return Op(f"canonical_non_isotropic_m{m}",
              _verdict_of(lambda: isotropics.canonical_form(vecs, m), isotropics.NotIsotropic),
              lambda v: v == "fail")


def pointwise_cycle(g: Gen, size: str) -> list:
    ops = [_darboux_op(g, m, k) for (m, k) in POINTWISE_DARBOUX[size]]
    ops += [_round_trip_op(g, m) for m in POINTWISE_SPINOR_DIMS[size]]
    for m in POINTWISE_TENSOR_DIMS[size]:
        ops += _tensor_ops(g, m)
    m = POINTWISE_FAIL_DIM[size]
    ops += [_bad_square_op(g, m), _non_isotropic_op(g, m)]
    return ops


# ---------------------------------------------------------------------------
# polynomial: identities on polynomial charts (Poly, d, Courant, Schouten)
# ---------------------------------------------------------------------------

R2 = Chart.real("x", "y")
R3 = Chart.real("x", "y", "z")
C2 = Chart.complex_plane(2)
SUITE_IDENTITIES = {"C1", "C2", "C3", "C4", "C5", "jacobi", "anomaly"}
POLY_DEGREES = {"full": (1, 2, 3), "toy": (1,)}


def _axiom_op(g: Gen, degree: int) -> Op:
    seed = g.seed()

    def check(res):
        return res.passed and SUITE_IDENTITIES <= set(res.checked)

    return Op(f"axiom_suite_d{degree}",
              lambda: suites.run_axiom_suite(R3, cases=1, seed=seed, degree=degree), check)


def _derived_op(g: Gen, degree: int) -> Op:
    seed = g.seed()
    return Op(f"derived_bracket_d{degree}",
              lambda: suites.run_derived_bracket_suite(R3, cases=1, seed=seed, degree=degree),
              lambda res: res.passed and res.checked == ["derived-bracket"])


def _deformation_ops(g: Gen, degree: int) -> list:
    base = gcs.j_complex(gcs.standard_complex_endo(2))
    omega = C2.dz(0).wedge(C2.dz(1))
    f = g.holomorphic(C2, degree)
    beta = integrability.holomorphic_bivector(C2, {(0, 1): f})
    pair = algebroid.complex_pair(C2)
    deformed = integrability.deform_by_bivector(C2, base, beta).structure
    # a non-holomorphic coefficient breaks d_L eps = 0 while [beta, beta] = 0
    f_bad = f + g.gauss(2, nonzero=True) * C2.zbar(g.r.randint(0, 1))
    beta_bad = integrability.holomorphic_bivector(C2, {(0, 1): f_bad})

    def poisson_square():
        _, pmv = gcs.poisson_of(deformed)
        return fields.schouten(C2, pmv, pmv)

    return [
        Op(f"deform_d{degree}",
           lambda: integrability.deform_by_bivector(C2, base, beta),
           lambda res: res.spinor == omega + MixedForm(4, {0: f})),
        Op(f"maurer_cartan_d{degree}",
           lambda: algebroid.maurer_cartan(pair, algebroid.eps_from_bivector(pair, beta)).verdict,
           lambda v: v == "pass"),
        Op(f"maurer_cartan_fail_d{degree}",
           lambda: algebroid.maurer_cartan(pair, algebroid.eps_from_bivector(pair, beta_bad)).verdict,
           lambda v: v == "fail"),
        Op(f"poisson_square_d{degree}", poisson_square, lambda br: not br),
    ]


def _modular_op(g: Gen, degree: int) -> Op:
    beta = MixedForm(2, {0b11: g.poly(R2, degree)}, "mv")
    vol = MixedForm(2, {0b11: R2.one()})
    f = g.poly(R2, degree)

    def check(x):
        # rescaling law X_{e^f v} = X_v + [beta, f]
        base = integrability.modular_vector_field(R2, beta, vol)
        br = fields.schouten(R2, beta, MixedForm(2, {0: f}, "mv"))
        return all(x.vec[i] == base.vec[i] + br.coeff(1 << i) for i in range(2))

    return Op(f"modular_d{degree}",
              lambda: integrability.modular_vector_field(R2, beta, vol, log_factor=f), check)


def _modular_fail_op(g: Gen) -> Op:
    """beta <-> v = (a, c x + b, e) on R^3 has v . curl v = c e != 0: not Poisson."""
    x = R3.var("x")
    a, b = (R3.const(g.gauss(2, False)) for _ in range(2))
    c, e = (g.gauss(2, False, nonzero=True) for _ in range(2))
    # a d_y^d_z + (c x + b) d_z^d_x + e d_x^d_y, written on ascending blades
    beta = MixedForm(3, {0b110: a, 0b101: -(x * c + b), 0b011: R3.const(e)}, "mv")
    vol = MixedForm(3, {0b111: R3.one()})
    return Op("modular_not_poisson",
              _verdict_of(lambda: integrability.modular_vector_field(R3, beta, vol), ValueError),
              lambda v: v == "fail")


def polynomial_cycle(g: Gen, size: str) -> list:
    ops = []
    for d in POLY_DEGREES[size]:
        ops.append(_axiom_op(g, d))
        if d == 3:  # a second copy steadies the tail, which this kind sets
            ops.append(_axiom_op(g, d))
        ops.append(_derived_op(g, d))
        ops += _deformation_ops(g, d)
        ops.append(_modular_op(g, d))
    ops.append(_modular_fail_op(g))
    return ops


# ---------------------------------------------------------------------------
# systems: tall witness systems, 2^m-row null spaces, Laplace determinants
#
# Inputs here are dense (no zero coefficient is drawn), so a heavy operation
# costs about the same for every seed and two cycles give a steady mean.
# ---------------------------------------------------------------------------

R4 = Chart.real("x1", "x2", "x3", "x4")
SYSTEMS = {
    "full": {"witness": (2, 2, 2, 2, 3), "eb": (1,) * 6 + (2,), "spinor": (10, 10, 12),
             "brane": (4,) * 6 + (6,) * 10 + (8,)},
    "toy": {"witness": (2,), "eb": (1,), "spinor": (6,), "brane": (4, 6)},
}


def _witness_op(g: Gen, degree: int) -> Op:
    f = g.holomorphic(C2, degree, dense=True)
    phi = C2.dz(0).wedge(C2.dz(1)) + MixedForm(4, {0: f})
    point = {n: GaussRat(g.frac(2)) for n in C2.names}

    def check(rep):
        return rep.verdict == "pass" and oracle.witness_holds(phi, rep.witness, point)

    return Op(f"witness_d{degree}",
              lambda: integrability.check_spinor_integrability(C2, phi), check)


def _non_closed_b_op(g: Gen, degree: int) -> Op:
    """e^B = 1 + B with dB = c dx_k^dx_i^dx_j != 0 everywhere: fails pointwise.

    Every term of B contains dx_i, so B ^ B = 0.  Each coefficient of
    dx_i ^ dx_b depends only on x_i and x_b, so it is closed, except for the
    added c x_k on dx_i ^ dx_j.
    """
    i, j, k = g.r.sample(range(4), 3)
    terms = {}
    for b in range(4):
        if b != i:
            a, c = sorted((i, b))
            sub = Chart.real(R4.names[a], R4.names[c])
            terms[(1 << a) | (1 << c)] = g.poly(sub, degree, 2).subs_into(R4.names, {})
    mask = (1 << i) | (1 << j)
    terms[mask] = terms[mask] + R4.coord(k) * g.gauss(2, False, nonzero=True)
    phi = MixedForm(4, terms).exp_wedge()
    return Op(f"non_closed_b_d{degree}",
              lambda: integrability.check_spinor_integrability(R4, phi).verdict,
              lambda v: v == "fail")


def _generic_spinor(g: Gen, m: int):
    """A B- then beta-transform of T with complex shears, and its pure spinor."""
    planted = isotropics.tangent_space(m)
    b = BlockTransform(m, "B", g.antisym(m, 1, True, dense=True))
    beta = BlockTransform(m, "beta", g.antisym(m, 1, True, dense=True))
    planted = isotropics.transform(isotropics.transform(planted, b), beta)
    return planted, isotropics.pure_spinor_line(planted)


def _spinor_ops(g: Gen, m: int) -> list:
    """Null space and round trip against the planted L, then (phi, conj phi)."""
    planted, phi = _generic_spinor(g, m)
    bar = phi.conj()
    want = oracle.mukai_top(phi, bar)
    return [
        Op(f"spinor_null_space_m{m}",
           lambda: isotropics.max_isotropic_from_spinor(phi),
           lambda got: got.equals(planted)),
        Op(f"mukai_m{m}", lambda: forms.mukai_coeff(phi, bar),
           lambda got: oracle.gauss_pair(got) == want),
    ]


def _space_filling_op(g: Gen, m: int) -> Op:
    """Symplectic J with a space-filling F: compatible iff 4 divides m.

    Blocks of (omega, F) = (e1^e4 + e2^e3, e1^e3 - e2^e4) give omega^-1 F a
    complex structure; a leftover 2-plane gets F = 2 omega, which cannot be.
    A common GL change of coordinates mixes them: dense up to m = 6, and two
    dense 4x4 blocks at m = 8, where a dense omega would make the Laplace
    expansion in ring_det the whole workload.
    """
    w0 = [[Fraction(0)] * m for _ in range(m)]
    f0 = [[Fraction(0)] * m for _ in range(m)]

    def put(mat, i, j, c):
        mat[i][j], mat[j][i] = Fraction(c), Fraction(-c)

    for o in range(0, m - m % 4, 4):
        put(w0, o, o + 3, 1), put(w0, o + 1, o + 2, 1)
        put(f0, o, o + 2, 1), put(f0, o + 1, o + 3, -1)
    for o in range(m - m % 4, m, 2):
        put(w0, o, o + 1, 1), put(f0, o, o + 1, 2)
    gl = [[Fraction(0)] * m for _ in range(m)]
    for start, size in ((0, m),) if m <= 6 else ((0, 4), (4, 4)):
        block = g.gl(size, dense=True)
        for i in range(size):
            for j in range(size):
                gl[start + i][start + j] = block[i][j].re
    w, f = (oracle.congruence(gl, mat) for mat in (w0, f0))
    chart = Chart.real(*(f"x{i + 1}" for i in range(m)))

    def comp(mat):
        return MixedForm(m, {(1 << i) | (1 << j): GaussRat(mat[i][j])
                             for i in range(m) for j in range(i + 1, m) if mat[i][j]})

    s = gcs.j_symplectic(forms.map_from_two_form(comp(w)))
    sub = branes.whole_chart(chart, comp(f))
    compatible = m % 4 == 0

    def check(rep):
        return rep.compatible == compatible and oracle.space_filling_j_matches(
            w, f, rep.space_filling_j)

    return Op(f"brane_space_filling_m{m}", lambda: branes.brane_check(s, sub), check)


def systems_cycle(g: Gen, size: str) -> list:
    spec = SYSTEMS[size]
    ops = [_witness_op(g, d) for d in spec["witness"]]
    ops += [_non_closed_b_op(g, d) for d in spec["eb"]]
    for m in spec["spinor"]:
        ops += _spinor_ops(g, m)
    ops += [_space_filling_op(g, m) for m in spec["brane"]]
    return ops


# ---------------------------------------------------------------------------
# jobs: every case file through the gcgeo command line
# ---------------------------------------------------------------------------

INVALID_CASE = "invalid_truncated.json"
INVALID_COMMAND = "null-space"
TOY_CASES = ("mukai_even_m4.json", "axiom_suite_r3.json", INVALID_CASE)


@dataclass
class Job:
    case: str
    argv: list
    exit_code: int
    verdict: str


def job_list(root: str, g: Gen, size: str) -> list:
    """All case files in a seeded order; the axiom suite gets a seeded --seed."""
    paths = sorted(glob.glob(os.path.join(root, "cases", "*.json")))
    if size == "toy":
        paths = [p for p in paths if os.path.basename(p) in TOY_CASES]
    suite_seed = g.seed() % 10000
    jobs = []
    for path in paths:
        name = os.path.basename(path)
        rel = os.path.join("cases", name)
        if name == INVALID_CASE:
            jobs.append(Job(name, [INVALID_COMMAND, rel], 2, "error"))
            continue
        with open(path) as fh:
            command = json.load(fh)["command"]
        argv = [command, rel]
        if command == "axiom-suite":
            argv += ["--seed", str(suite_seed)]
        jobs.append(Job(name, argv, 0, "pass"))
    g.r.shuffle(jobs)
    return jobs


CYCLES = {
    "pointwise": pointwise_cycle,
    "polynomial": polynomial_cycle,
    "systems": systems_cycle,
}
