"""The coframe-based pointwise constructions against the dense ones they replaced.

`canonical_spinor`, `darboux_point`, `pure_spinor_line`,
`graph_over_cotangent` and `dual_spinor_of` read every 2-form off the
coframe dual to an adapted basis, and solve their mask systems through
`forms.coefficient_rows`.  The references below are the earlier dense
constructions, kept here as oracles: 2-forms conjugated by the inverse
change of basis with two m x m products, and one dense matrix per system
with a row per blade.  `canonical_spinor` takes Delta = im beta and reads
its exponent off phi by contraction; its reference is the solve it
replaced, with Delta = ker(Omega ^ conj Omega), the exponent solved over
the coframe images e'^a ^ e'^b ^ Omega, and the blocks summed.  The data
read off canonical rows is checked the same way: `MaxIsotropic.conj`
against re-reducing the conjugated rows, the rank-of-Im test against
`intersection_dim` with that conjugate, `_extension_of_eps` against its
sum of coframe wedges, and `exp_wedge_on` against the exponential wedged
afterwards.  Every comparison is exact equality.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from gcgeo import gcs, linalg
from gcgeo.charts import Chart
from gcgeo.clifford import BlockTransform, GenVector
from gcgeo.forms import MixedForm, coefficient_rows, covector_form, map_from_two_form, two_form_from_map
from gcgeo.gcs import canonical_spinor, darboux_point, eigenbundle, validate_gc
from gcgeo.isotropics import (
    _extension_of_eps,
    canonical_form,
    coframe,
    dual_spinor_of,
    graph_over_cotangent,
    pure_spinor_line,
    transform,
)
from gcgeo.randgen import Rng
from gcgeo.scalars import HALF, ONE, ZERO, GaussRat, Poly, as_gauss

from conftest import gauss_rats, wide_gauss_rats


# ---------------------------------------------------------------------------
# the dense references
# ---------------------------------------------------------------------------

def conjugated(bprime, cinv):
    """Standard components cinv^T B' cinv of a 2-form with adapted components B'."""
    return linalg.mat_mul(linalg.transpose(cinv), linalg.mat_mul(bprime, cinv))


def dense_extension_of_eps(delta_rows, eps, dim):
    """Components of the 2-form with i*B = eps, zero on a pivot complement."""
    if not delta_rows:
        return linalg.zeros(dim, dim)
    _, piv = linalg.rref([list(r) for r in delta_rows])
    comp = [c for c in range(dim) if c not in piv]
    cols = [list(r) for r in delta_rows] + [
        [ONE if i == c else ZERO for i in range(dim)] for c in comp
    ]
    cinv = linalg.inverse(linalg.transpose(cols))
    bprime = linalg.zeros(dim, dim)
    for a in range(len(delta_rows)):
        for b in range(len(delta_rows)):
            bprime[a][b] = eps[a][b]
    return conjugated(bprime, cinv)


def dense_pure_spinor_line(iso):
    dim = iso.dim
    theta = linalg.kernel([list(r) for r in iso.delta_basis]) if iso.delta_basis else linalg.identity(dim)
    neg_eps = [[-x for x in row] for row in iso.eps]
    bcomp = dense_extension_of_eps(iso.delta_basis, neg_eps, dim)
    phi = two_form_from_map(linalg.transpose(bcomp)).exp_wedge()
    for th in theta:
        phi = phi.wedge(covector_form(dim, th))
    return phi


def dense_beta(iso):
    """The bivector witness of graph_over_cotangent."""
    dim = iso.dim
    swapped = canonical_form([GenVector(dim, v.covec, v.vec) for v in iso.basis], dim)
    bcomp = dense_extension_of_eps(swapped.delta_basis, [list(r) for r in swapped.eps], dim)
    return two_form_from_map(linalg.transpose(bcomp), "mv")


def dense_kernel(cols, empty):
    """Right kernel of the matrix with a row per blade and a column per form."""
    masks = sorted(set().union(*[set(c.terms) for c in cols]) if any(cols) else set())
    mat = [[as_gauss(c.coeff(mask)) for c in cols] for mask in masks]
    return linalg.kernel(mat) if mat else empty


def realify(vectors):
    """Reduced rows spanning the real and imaginary parts of complex vectors."""
    rows = []
    for v in vectors:
        re = [GaussRat(c.re) for c in v]
        im = [GaussRat(c.im) for c in v]
        rows += [r for r in (re, im) if any(r)]
    return linalg.row_space_basis(rows)


def dense_adapted_splitting(omega_k):
    m = omega_k.dim
    oo = omega_k.wedge(omega_k.conj())
    ker = dense_kernel(
        [GenVector.basis_vector(m, i).act(oo) for i in range(m)], linalg.identity(m)
    )
    delta_rows = realify(ker)
    _, piv = linalg.rref([list(r) for r in delta_rows]) if delta_rows else (None, [])
    comp = [c for c in range(m) if c not in piv]
    n_ker = dense_kernel([GenVector.basis_vector(m, c).act(omega_k) for c in comp], [])
    n01 = []
    for v in n_ker:
        full = [ZERO] * m
        for coeff, c in zip(v, comp):
            full[c] = coeff
        n01.append(full)
    n10 = [[c.conj() for c in v] for v in n01]
    return delta_rows, comp, n10, n01


def dense_canonical(s):
    """(phi, omega_k, a2, delta_rows, cmat, cinv, nd, kk), with a2 solved densely."""
    lft = eigenbundle(s)
    k = lft.type
    phi = dense_pure_spinor_line(lft)
    m = s.dim
    omega_k = phi.degree_part(k)
    delta_rows, _, n10, n01 = dense_adapted_splitting(omega_k)
    cmat = linalg.transpose([list(r) for r in delta_rows] + n10 + n01)
    cinv = linalg.inverse(cmat)
    nd, kk = len(delta_rows), len(n10)
    o = nd + kk
    pairs = (
        [(i, j) for i in range(nd) for j in range(i + 1, nd)]
        + [(i, o + j) for i in range(nd) for j in range(kk)]
        + [(o + i, o + j) for i in range(kk) for j in range(i + 1, kk)]
    )
    basis_forms = []
    for i, j in pairs:
        mprime = linalg.zeros(m, m)
        mprime[i][j] = ONE
        mprime[j][i] = -ONE
        basis_forms.append(two_form_from_map(linalg.transpose(conjugated(mprime, cinv))))
    target = phi.degree_part(k + 2)
    images = [f.wedge(omega_k) for f in basis_forms]
    masks = sorted(set(target.terms).union(*[set(img.terms) for img in images]))
    mat = [[as_gauss(img.coeff(mask)) for img in images] for mask in masks]
    rhs = [as_gauss(target.coeff(mask)) for mask in masks]
    sol = linalg.solve(mat, rhs) if mat else []
    a2 = MixedForm.zero(m)
    for c, f in zip(sol, basis_forms):
        a2 = a2 + f.scale(c)
    return phi, omega_k, a2, delta_rows, cmat, cinv, nd, kk


def dense_darboux(s):
    """(a200, a101, a002), btilde, omega0 and omega0's Gram on Delta, from a2's adapted components."""
    _, _, a2, delta_rows, cmat, cinv, nd, kk = dense_canonical(s)
    m = s.dim
    amap = map_from_two_form(a2) if a2 else linalg.zeros(m, m)
    acomp = [[amap[j][i] for j in range(m)] for i in range(m)]
    aprime = linalg.mat_mul(linalg.transpose(cmat), linalg.mat_mul(acomp, cmat))

    def block_form(rows_cols):
        sel = linalg.zeros(m, m)
        for i, j in rows_cols:
            sel[i][j] = aprime[i][j]
            sel[j][i] = aprime[j][i]
        return two_form_from_map(linalg.transpose(conjugated(sel, cinv)))

    o = nd + kk
    a200 = block_form([(i, j) for i in range(nd) for j in range(i + 1, nd)])
    a101 = block_form([(i, o + j) for i in range(nd) for j in range(kk)])
    a002 = block_form([(o + i, o + j) for i in range(kk) for j in range(i + 1, kk)])
    btilde = (a200 + a200.conj()).scale(HALF) + (a101 + a101.conj()) + (a002 + a002.conj())
    omega0 = (a200 - a200.conj()).scale(GaussRat(0, Fraction(-1, 2)))
    om_map = map_from_two_form(omega0) if omega0 else linalg.zeros(m, m)
    gram = [
        [
            sum((u[a] * om_map[b][a] * v[b] for a in range(m) for b in range(m)), ZERO)
            for v in delta_rows
        ]
        for u in delta_rows
    ]
    return (a200, a101, a002), btilde, omega0, gram


# ---------------------------------------------------------------------------
# inputs: randgen structures and isotropics of every type, some with wide entries
# ---------------------------------------------------------------------------

@st.composite
def wide_transforms(draw, m, real):
    """A B, beta or gl transform with entries from conftest.wide_gauss_rats."""
    kind = draw(st.sampled_from(["B", "beta", "gl"]))
    fix = (lambda x: GaussRat(x.re)) if real else (lambda x: x)
    mat = linalg.identity(m) if kind == "gl" else linalg.zeros(m, m)
    for i in range(m):
        for j in range(i):
            if draw(st.booleans()):
                c = fix(draw(wide_gauss_rats()))
                mat[i][j] = c
                if kind != "gl":
                    mat[j][i] = -c
    return BlockTransform(m, kind, mat)


@st.composite
def structures(draw):
    m = draw(st.sampled_from([2, 4, 6, 8]))
    k = draw(st.integers(0, m // 2))
    rng = Rng(draw(st.integers(0, 10**6)))
    s = rng.gc_structure(m, k, conjugations=draw(st.integers(0, 2)))
    if draw(st.booleans()):
        o = draw(wide_transforms(m, real=True)).orth_matrix()
        s = validate_gc(linalg.mat_mul(o, linalg.mat_mul(s.matrix(), linalg.inverse(o))))
    return s


@st.composite
def isotropics(draw):
    m = draw(st.integers(1, 8))
    k = draw(st.integers(0, m))
    units = [GenVector.basis_vector(m, i) for i in range(m - k)]
    start = canonical_form(units + [GenVector.basis_covector(m, i) for i in range(m - k, m)], m)
    rng = Rng(draw(st.integers(0, 10**6)))
    iso = rng.isotropic(m, steps=draw(st.integers(0, 3)), complex_ok=draw(st.booleans()), start=start)
    if draw(st.booleans()):
        iso = transform(iso, draw(wide_transforms(m, real=False)))
    return iso


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(structures())
def test_canonical_spinor_and_darboux_match_dense_construction(s):
    data = canonical_spinor(s)
    phi, omega_k, a2, delta_rows, *_ = dense_canonical(s)
    assert data.generator == phi and data.omega_k == omega_k
    assert data.a2 == a2 == data.a200 + data.a101 + data.a002
    assert [list(r) for r in data.delta_basis] == [list(r) for r in delta_rows]
    blocks, btilde, omega0, gram = dense_darboux(s)
    assert (data.a200, data.a101, data.a002) == blocks
    dp = darboux_point(s)
    assert dp.btilde == btilde and dp.omega0 == omega0
    delta = data.delta_basis
    assert gram == [[omega0.contract(u).contract(v).coeff(0) for v in delta] for u in delta]


@settings(max_examples=40, deadline=None)
@given(structures())
def test_adapted_splitting_matches_dense_kernels(s):
    omega_k = canonical_spinor(s).omega_k
    delta_rows, comp, _ = gcs._symplectic_distribution(s)
    n10, n01 = gcs._transverse_splitting(omega_k, comp)
    want = dense_adapted_splitting(omega_k)
    assert [[list(r) for r in part] for part in (delta_rows, n10, n01)] == [
        [list(r) for r in part] for part in (want[0], want[2], want[3])
    ]
    assert list(comp) == list(want[1])


def solved_canonical(s):
    """CanonicalSpinorData with Delta = ker(Omega ^ conj Omega) and the exponent solved.

    The exponent is solved over the images e'^a ^ e'^b ^ Omega of the
    (2,0,0), (1,0,1) and (0,0,2) coframe blocks, and each block is the sum
    of its basis 2-forms scaled by the solution.
    """
    lft = eigenbundle(s)
    k = lft.type
    phi = pure_spinor_line(lft)
    m = s.dim
    omega_k = phi.degree_part(k)
    delta_rows, comp, n10, n01 = dense_adapted_splitting(omega_k)
    nd, kk = len(delta_rows), len(n10)
    e = [covector_form(m, row) for row in coframe(delta_rows + n10 + n01)]
    o = nd + kk
    blocks = [
        [e[i].wedge(e[j]) for i in range(nd) for j in range(i + 1, nd)],
        [e[i].wedge(e[o + j]) for i in range(nd) for j in range(kk)],
        [e[o + i].wedge(e[o + j]) for i in range(kk) for j in range(i + 1, kk)],
    ]
    images = [f.wedge(omega_k) for block in blocks for f in block]
    rows, rhs = coefficient_rows(images, phi.degree_part(k + 2))
    sol = linalg.solve(rows, rhs, len(images))
    assert sol is not None
    coeffs = iter(sol)
    parts = []
    for block in blocks:
        acc = MixedForm.zero(m)
        for f in block:
            acc = acc + f.scale(next(coeffs))
        parts.append(acc)
    a200, a101, a002 = parts
    a2 = a200 + a101 + a002
    return gcs.CanonicalSpinorData(
        k=k,
        omega_k=omega_k,
        b2=(a2 + a2.conj()).scale(HALF),
        om2=(a2 - a2.conj()).scale(GaussRat(0, Fraction(-1, 2))),
        a2=a2,
        a200=a200,
        a101=a101,
        a002=a002,
        generator=phi,
        delta_basis=tuple(tuple(r) for r in delta_rows),
        n_complement=tuple(comp),
        n10=tuple(tuple(v) for v in n10),
    )


def solved_darboux(data):
    """DarbouxData recombined from the blocks of solved_canonical."""
    a200, a101, a002 = data.a200, data.a101, data.a002
    return gcs.DarbouxData(
        k=data.k,
        btilde=(a200 + a200.conj()).scale(HALF) + (a101 + a101.conj()) + (a002 + a002.conj()),
        omega0=(a200 - a200.conj()).scale(GaussRat(0, Fraction(-1, 2))),
        delta_frame=data.delta_basis,
        n_complement=data.n_complement,
        n10_frame=data.n10,
        generator=data.generator,
        omega_k=data.omega_k,
    )


def dense_transform(r, m, kind):
    """A B, beta or gl transform whose off-diagonal entries are all one of +-1, +-1/2."""

    def pick():
        return GaussRat(r.choice([-1, 1, Fraction(-1, 2), Fraction(1, 2)]))

    if kind == "gl":
        lo, up = linalg.identity(m), linalg.identity(m)
        for i in range(m):
            for j in range(i):
                lo[i][j], up[j][i] = pick(), pick()
        return BlockTransform(m, "gl", linalg.mat_mul(lo, up))
    mat = linalg.zeros(m, m)
    for i in range(m):
        for j in range(i):
            c = pick()
            mat[i][j], mat[j][i] = c, -c
    return BlockTransform(m, kind, mat)


def seeded_structure(m, k, kinds, dense, seed):
    """Complex-k plus symplectic conjugated by blocks of the given kinds.

    Sparse: three randgen conjugations, each of a kind drawn from `kinds`.
    Dense: one transform of each kind in a seeded order, every off-diagonal
    entry nonzero.  A beta block may lower the type; B and gl blocks keep it.
    """
    rng = Rng(seed)
    if not dense:
        return rng.gc_structure(m, k, conjugations=3, kinds=kinds)
    kinds = list(kinds)
    rng.r.shuffle(kinds)
    j = Rng(0).gc_structure(m, k, conjugations=0).matrix()
    for kind in kinds:
        o = dense_transform(rng.r, m, kind).orth_matrix()
        j = linalg.mat_mul(o, linalg.mat_mul(j, linalg.inverse(o)))
    return validate_gc(j)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("kinds", [("B", "gl"), ("B", "beta", "gl")], ids=["B-gl", "B-beta-gl"])
@pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 11, 2) for k in range(m // 2 + 1)])
def test_canonical_spinor_and_darboux_match_the_solve(m, k, kinds, dense):
    s = seeded_structure(m, k, kinds, dense, seed=100 * m + k)
    data = canonical_spinor(s)
    assert data.k == k or "beta" in kinds
    want = solved_canonical(s)
    assert data == want
    assert darboux_point(s) == solved_darboux(want)


@settings(max_examples=80, deadline=None)
@given(isotropics())
def test_spinor_lines_match_dense_construction(iso):
    m = iso.dim
    assert pure_spinor_line(iso) == dense_pure_spinor_line(iso)
    f_basis, gamma, beta = graph_over_cotangent(iso)
    assert beta == dense_beta(iso)
    want = MixedForm.one(m)
    for f in f_basis:
        want = want.wedge(covector_form(m, f))
    if beta:
        want = BlockTransform.from_bivector(beta).spinor(want)
    assert dual_spinor_of(iso) == want
    for variance in ("form", "mv"):
        bcomp = dense_extension_of_eps(iso.delta_basis, iso.eps, m)
        assert _extension_of_eps(iso, variance) == two_form_from_map(
            linalg.transpose(bcomp), variance
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_coframe_is_dual_to_the_basis(m, seed):
    basis = Rng(seed).gl_matrix(m)
    e = [covector_form(m, row) for row in coframe(basis)]
    assert [[f.contract(v).coeff(0) for v in basis] for f in e] == linalg.identity(m)


@st.composite
def form_systems(draw):
    m = draw(st.integers(1, 5))
    entries = st.one_of(gauss_rats(), wide_gauss_rats(), st.just(ZERO))
    masks = st.integers(0, (1 << m) - 1)
    forms = st.dictionaries(masks, entries, max_size=6).map(lambda t: MixedForm(m, t))
    return draw(st.lists(forms, max_size=6)), draw(forms)


@settings(max_examples=150, deadline=None)
@given(form_systems())
def test_coefficient_rows_match_dense_mask_matrix(system):
    cols, target = system
    n = len(cols)
    rows, rhs = coefficient_rows(cols)
    assert linalg.kernel(rows, n) == dense_kernel(cols, linalg.identity(n))
    assert not any(rhs)
    rows, rhs = coefficient_rows(cols, target)
    masks = sorted(set(target.terms).union(*[set(c.terms) for c in cols]))
    mat = [[c.coeff(mask) for c in cols] for mask in masks]
    want = linalg.solve(mat, [target.coeff(mask) for mask in masks]) if mat else [ZERO] * n
    assert linalg.solve(rows, rhs, n) == want


# ---------------------------------------------------------------------------
# data read off the canonical rows, against the re-derivations it replaced
# ---------------------------------------------------------------------------

def reduced_conj(iso):
    """The conjugate by re-reducing the conjugated rows."""
    return canonical_form([v.conj() for v in iso.basis], iso.dim)


def wedge_sum_extension(iso, variance):
    """sum_{a<b} eps_ab e'^a ^ e'^b over the coframe dual to Delta plus a pivot complement."""
    dim = iso.dim
    _, piv = linalg.rref([list(r) for r in iso.delta_basis]) if iso.delta_basis else (None, [])
    units = [[ONE if i == c else ZERO for i in range(dim)] for c in range(dim) if c not in piv]
    cinv = linalg.inverse(linalg.transpose([list(r) for r in iso.delta_basis] + units))
    e = [covector_form(dim, row, variance) for row in cinv]
    out = MixedForm.zero(dim, variance)
    for a, row in enumerate(iso.eps):
        for b in range(a + 1, len(row)):
            out = out + e[a].wedge(e[b]).scale(row[b])
    return out


@settings(max_examples=80, deadline=None)
@given(isotropics())
def test_conj_reads_off_canonical_rows(iso):
    assert iso.conj() == reduced_conj(iso)
    assert iso.conj().conj() == iso


@settings(max_examples=80, deadline=None)
@given(isotropics())
def test_rank_of_imaginary_rows_is_the_conjugate_intersection(iso):
    want = iso.intersection_dim(reduced_conj(iso))
    assert iso.conj_intersection_dim() == want
    assert iso.is_real() == iso.equals(reduced_conj(iso)) == (want == iso.dim)


@settings(max_examples=80, deadline=None)
@given(isotropics())
def test_extension_of_eps_congruence_matches_wedge_sum(iso):
    for variance in ("form", "mv"):
        assert _extension_of_eps(iso, variance) == wedge_sum_extension(iso, variance)


def exp_by_powers(a):
    """1 + a + a^2/2! + ..., each power formed on its own."""
    acc = power = MixedForm.one(a.dim, a.variance)
    k = 1
    while True:
        power = power.wedge(a).scale(GaussRat(Fraction(1, k)))
        if not power:
            return acc
        acc = acc + power
        k += 1


R2 = Chart.real("x", "y")


@st.composite
def polys(draw):
    """A GaussRat or a Poly in x, y of degree at most 2, so a form mixes both."""
    if draw(st.booleans()):
        return draw(gauss_rats())
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return Poly(R2.names, draw(st.dictionaries(exps, gauss_rats(), min_size=1, max_size=3)))


@st.composite
def exponent_and_form(draw, coeffs):
    m = draw(st.integers(1, 6))
    even = [mask for mask in range(1, 1 << m) if mask.bit_count() % 2 == 0]
    a = {}
    if even:
        a = draw(st.dictionaries(st.sampled_from(even), coeffs, max_size=5))
    omega = draw(st.dictionaries(st.integers(0, (1 << m) - 1), coeffs, max_size=6))
    variance = draw(st.sampled_from(["form", "mv"]))
    return MixedForm(m, a, variance), MixedForm(m, omega, variance)


@settings(max_examples=150, deadline=None)
@given(st.one_of(exponent_and_form(gauss_rats()), exponent_and_form(wide_gauss_rats())))
def test_exp_wedge_on_matches_exponential_then_wedge(pair):
    a, omega = pair
    want = a.exp_wedge().wedge(omega)
    assert a.exp_wedge_on(omega) == want == exp_by_powers(a).wedge(omega)


@settings(max_examples=60, deadline=None)
@given(exponent_and_form(polys()))
def test_exp_wedge_on_matches_with_poly_coefficients(pair):
    a, omega = pair
    want = a.exp_wedge().wedge(omega)
    assert a.exp_wedge_on(omega) == want == exp_by_powers(a).wedge(omega)


@pytest.mark.parametrize(
    "extra,message",
    [
        ({0b1: ONE}, "wedge exponential needs even degrees"),
        ({0b111: HALF}, "wedge exponential needs even degrees"),
        ({0: ONE}, "exponential series does not terminate: the exponent has a degree-0 part"),
        ({0: Poly(R2.names, {(1, 0): ONE})}, "exponential series does not terminate"),
    ],
)
@pytest.mark.parametrize("omega", [MixedForm.zero(3), MixedForm.one(3), MixedForm(3, {0b110: ONE})])
def test_exp_wedge_on_refuses_what_exp_wedge_refuses(extra, message, omega):
    a = MixedForm(3, {0b011: ONE, **extra})
    with pytest.raises(ValueError, match=message):
        a.exp_wedge().wedge(omega)
    with pytest.raises(ValueError, match=message):
        a.exp_wedge_on(omega)
