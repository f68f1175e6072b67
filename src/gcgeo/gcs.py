"""Generalized complex structures at a point.

Validation, the +i eigenbundle, type and canonical spinor extraction, the
spinorial Z-grading, the Poisson block, and the constructive pointwise
decomposition into a complex times a symplectic piece.  The symplectic
distribution Delta is the image of the Poisson block beta, and the canonical
exponent is read off phi by contraction with a frame of N_{1,0}; the Darboux
normal form is its blocks over the adapted basis (Delta, N_{1,0}, N_{0,1})
recombined.  The canonical rows of L = ker(J - i) come from one elimination
of J - i, its columns reversed (`eigenbundle`).

The verdicts are exact identities, each stated on data already held:

- L cap conj L = 0 for the eigenbundle L is decided as rank(Im R) = m on its
  canonical rows R (`MaxIsotropic.conj_intersection_dim`), since
  [R; conj R] has rank m + rank(Im R).
- The type is half of m - rank(beta), from the same reduction of beta that
  gives Delta = im beta (`_symplectic_distribution`).
- The canonical exponent A = B + i omega, read off as
  A = i_{v_k}...i_{v_1} phi_{k+2} / i_{v_k}...i_{v_1} Omega, is verified by
  e^A ^ Omega = phi, decided on its degree-(k+2) part A ^ Omega = phi_{k+2}
  by Cartan's lemma (`_check_exponent`), and the nondegeneracy by
  omega^{n-k} ^ Omega ^ conj Omega != 0.
- The Darboux form keeps the spinor line exactly when X ^ Omega = 0 for
  X = conj(a101) + conj(a002) (see `darboux_point`).

Matrices act on column coordinates in the basis (e_1..e_m, e^1..e^m); the
blocks of J are (A, P_beta_map; B_map, -A^T), built and read through
linalg.from_blocks and linalg.blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .record import Record
from .scalars import GaussRat, ONE, ZERO, IUNIT, HALF, as_gauss, is_real
from .forms import (
    MixedForm, check_dim, coefficient_rows, map_from_two_form, mukai_coeff, two_form_from_map,
)
from .clifford import GenVector, SoElement
from .isotropics import (
    MaxIsotropic, coframe, isotropic_rows, max_isotropic_from_spinor, pure_spinor_line,
    reduced_form,
)
from . import linalg


class InvalidStructure(ValueError):
    pass


class GCStructure(Record, frozen=True):
    """A validated orthogonal complex structure on (V + V*)."""

    dim: int  # m = 2n
    j: tuple

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    def matrix(self):
        return [list(r) for r in self.j]

    def is_constant(self) -> bool:
        return all(x.is_const for r in self.j for x in r)

    def eval_at(self, point: dict) -> "GCStructure":
        return GCStructure(self.dim, tuple(tuple(x.eval(point) for x in row) for row in self.j))

    def blocks(self) -> SoElement:
        a, beta, b, _ = linalg.blocks(self.j)
        return SoElement(self.dim, a=a, b_map=b, beta_map=beta)

    def apply(self, v: GenVector) -> GenVector:
        return GenVector.from_coords(linalg.mat_vec(self.matrix(), v.coords()))


def validate_gc(j) -> GCStructure:
    """Check that J is real, J^2 = -1 and orthogonality, naming the failure.

    Given J^2 = -1, J is orthogonal for the pairing exactly when it lies in
    so(T + T*): J = [[A, beta], [B, -A^T]] with beta and B antisymmetric.
    Polynomial entries are checked as exact polynomial identities.
    """
    side = len(j)
    if side % 2 or any(len(r) != side for r in j):
        raise InvalidStructure("J must be a square matrix of even side")
    m = side // 2
    check_dim(m)
    j = [list(r) for r in j]
    if not all(map(is_real, chain.from_iterable(j))):
        i, k = next((i, k) for i, row in enumerate(j) for k, x in enumerate(row) if not is_real(x))
        raise InvalidStructure(f"J is not real: entry ({i},{k}) is {j[i][k]!r}")
    j2 = linalg.mat_mul(j, j)
    for i in range(side):
        for k in range(side):
            want = -ONE if i == k else ZERO
            if j2[i][k] != want:
                raise InvalidStructure(
                    f"J^2 != -1: entry ({i},{k}) is {j2[i][k]!r}"
                )
    a, beta, b, d = linalg.blocks(j)
    if not linalg.is_antisymmetric(beta):
        raise InvalidStructure("J is not orthogonal: upper-right block beta is not antisymmetric")
    if not linalg.is_antisymmetric(b):
        raise InvalidStructure("J is not orthogonal: lower-left block B is not antisymmetric")
    if not linalg.mat_eq(d, [[-x for x in col] for col in zip(*a)]):
        raise InvalidStructure("J is not orthogonal: lower-right block is not -A^T")
    return GCStructure(m, tuple(tuple(r) for r in j))


# ---------------------------------------------------------------------------
# standard structures
# ---------------------------------------------------------------------------

def j_symplectic(omega_map) -> GCStructure:
    """[[0, -w^{-1}], [w, 0]] for an invertible antisymmetric shear map."""
    zero = linalg.zeros(len(omega_map), len(omega_map))
    minus_winv = [[-x for x in row] for row in linalg.inverse(omega_map)]
    return validate_gc(linalg.from_blocks(zero, minus_winv, omega_map, zero))


def j_complex(jmat) -> GCStructure:
    """[[-J, 0], [0, J^T]] for an endomorphism with J^2 = -1."""
    zero = linalg.zeros(len(jmat), len(jmat))
    minus_j = [[-x for x in row] for row in jmat]
    return validate_gc(linalg.from_blocks(minus_j, zero, zero, linalg.transpose(jmat)))


def direct_sum(s1: GCStructure, s2: GCStructure) -> GCStructure:
    """J1 + J2 on (V1 + V2) + (V1 + V2)*: each block of J is diag(block of J1, block of J2)."""
    m1, m2 = s1.dim, s2.dim

    def diag(x, y):
        return linalg.from_blocks(x, linalg.zeros(m1, m2), linalg.zeros(m2, m1), y)

    pairs = zip(linalg.blocks(s1.j), linalg.blocks(s2.j))
    return validate_gc(linalg.from_blocks(*(diag(x, y) for x, y in pairs)))


def standard_complex_endo(n: int):
    """J on R^{2n} pairing (x_{2j-1}, x_{2j}) as z_j: e_{2j-1} -> e_{2j}."""
    m = 2 * n
    jm = linalg.zeros(m, m)
    for k in range(n):
        jm[2 * k + 1][2 * k] = ONE
        jm[2 * k][2 * k + 1] = -ONE
    return jm


def standard_symplectic_map(n: int):
    """Shear map of dx1^dx2 + dx3^dx4 + ... on R^{2n}.

    In this convention it is the matrix of standard_complex_endo(n).
    """
    return standard_complex_endo(n)


def quaternion_triple():
    """Left-multiplication matrices I, J, K on R^4 = H."""
    i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    conv = lambda mat: [[GaussRat(x) for x in row] for row in mat]
    i, j = conv(i), conv(j)
    k = linalg.mat_mul(i, j)
    return i, j, k


def hyperkahler_interpolation(a, b) -> GCStructure:
    """a*J_I + b*J_{omega_J} on flat R^4, for a rational circle point."""
    a, b = as_gauss(a), as_gauss(b)
    if a * a + b * b != ONE:
        raise InvalidStructure("(a, b) must satisfy a^2 + b^2 = 1 exactly")
    i_mat, j_mat, _ = quaternion_triple()
    ji = j_complex(i_mat)
    jw = j_symplectic(j_mat)  # omega_J has shear map equal to L_j
    m = 4
    j = [
        [a * ji.j[r][c] + b * jw.j[r][c] for c in range(2 * m)]
        for r in range(2 * m)
    ]
    return validate_gc(j)


# ---------------------------------------------------------------------------
# eigenbundle, type, spinor
# ---------------------------------------------------------------------------

def eigenbundle(s: GCStructure) -> MaxIsotropic:
    """The +i eigenbundle as a maximal isotropic over the gaussian rationals.

    L = ker(J - i) must have dimension m and meet its conjugate only in 0.
    Its canonical rows come from one elimination, of J - i with its 2m
    columns in reverse order.  The kernel basis of that elimination has one
    vector per free column f' of the reversed matrix, with a 1 at f', 0 at
    the other free columns, and its other nonzeros at pivot columns c' < f',
    since a reduced pivot row has entries only after its pivot.  Reversed
    back, with f = 2m - 1 - f', each vector has a 1 at f, 0 at the other
    free columns and nonzeros only after f; ordered by f, the vectors are in
    reduced row echelon form, which is unique, so they are the canonical
    rows of L (`isotropics.reduced_form`), with no second reduction.
    L cap conj L = 0 is read off those rows R: [R; conj R] spans Re R and
    Im R, Re R keeps the unit pivots of R and Im R vanishes on them, so
    dim(L cap conj L) = m - rank(Im R), and L cap conj L = 0 exactly when
    rank(Im R) = m.
    """
    m = s.dim
    last = 2 * m - 1
    a = [[as_gauss(x) for x in reversed(row)] for row in s.j]
    for i, row in enumerate(a):
        row[last - i] = row[last - i] - IUNIT
    ker = linalg.kernel(a)
    if len(ker) != m:
        raise InvalidStructure(f"+i eigenspace has dimension {len(ker)}, expected {m}")
    lft = reduced_form(isotropic_rows([v[::-1] for v in reversed(ker)]), m)
    if lft.conj_intersection_dim():
        raise InvalidStructure("eigenbundle meets its conjugate")
    return lft


def _symplectic_distribution(s: GCStructure):
    """Delta = im beta in reduced rows, the columns off its pivots, and the type.

    beta = pi_T o J|_{T*} is the Poisson structure of J and its image is the
    symplectic distribution (Gualtieri, arXiv:math/0703298, relation to
    Poisson geometry).  beta is antisymmetric, so its rows span im beta too.
    J(0, xi) = (beta xi, -A^T xi) lies in T* exactly when beta xi = 0, and J
    is injective, so T* cap J(T*) has the dimension of ker beta, twice the
    type.  Returns (delta_rows, comp, type).
    """
    m = s.dim
    _, beta, _, _ = linalg.blocks(s.j)
    red, piv = linalg.rref([[as_gauss(x) for x in row] for row in beta])
    inter = m - len(piv)
    if inter % 2:
        raise InvalidStructure("T* cap J T* has odd dimension")
    return red[: len(piv)], [c for c in range(m) if c not in piv], inter // 2


def gc_type(s: GCStructure) -> int:
    """Half the real dimension of T* cap J(T*), from the rank of beta."""
    return _symplectic_distribution(s)[2]


def gc_from_pure_spinor(phi: MixedForm) -> GCStructure:
    """The structure whose +i eigenbundle is the null space of phi.

    The null space L must meet its conjugate only in 0, decided as
    rank(Im R) = m on its canonical rows R (see `eigenbundle`).
    """
    lft = max_isotropic_from_spinor(phi)
    m = phi.dim
    if lft.conj_intersection_dim():
        raise InvalidStructure("null space meets its conjugate; spinor not of complex type")
    if not mukai_coeff(phi, phi.conj()):
        raise InvalidStructure("degenerate spinor: (phi, conj phi) = 0")
    cols = [v.coords() for v in lft.basis] + [v.conj().coords() for v in lft.basis]
    u = linalg.transpose(cols)
    zero = linalg.zeros(m, m)
    d = linalg.from_blocks(linalg.identity(m, IUNIT), zero, zero, linalg.identity(m, -IUNIT))
    j = linalg.mat_mul(u, linalg.mat_mul(d, linalg.inverse(u)))
    for row in j:
        for x in row:
            if x.im != 0:
                raise InvalidStructure("reconstructed J is not real")
    return validate_gc(j)


class CanonicalSpinorData(Record, frozen=True):
    """Generator = exp(B + i omega) ^ Omega with Omega decomposable of degree k."""

    k: int
    omega_k: MixedForm  # the decomposable lowest piece
    b2: MixedForm  # real 2-form
    om2: MixedForm  # real 2-form
    a2: MixedForm  # b2 + i om2, the exponent read off phi: a200 + a101 + a002
    a200: MixedForm  # the (2,0,0) block, on Delta x Delta
    a101: MixedForm  # the (1,0,1) block, on Delta x N_{0,1}
    a002: MixedForm  # the (0,0,2) block, on N_{0,1} x N_{0,1}
    generator: MixedForm
    delta_basis: tuple  # real basis of the symplectic distribution
    n_complement: tuple  # real coordinate indices spanning the transverse N
    n10: tuple  # complex basis of N_{1,0}


def _transverse_splitting(omega_k: MixedForm, comp):
    """N_{1,0} and N_{0,1} in the span N of the unit vectors e_c, c in comp.

    By the convention Omega spans det N*_{1,0}, N_{0,1} is the space of
    vectors of N x C that kill Omega.  Returns (n10, n01).
    """
    m = omega_k.dim
    rows, _ = coefficient_rows([omega_k.contract_blade(1 << c) for c in comp])
    n01 = []
    for v in linalg.kernel(rows, len(comp)):
        full = [ZERO] * m
        for coeff, c in zip(v, comp):
            full[c] = coeff
        n01.append(full)
    return [[c.conj() for c in v] for v in n01], n01


def _check_exponent(a2: MixedForm, omega_k: MixedForm, phi: MixedForm, k: int):
    """Raise unless e^A ^ Omega = phi for A = a2, decided as A ^ Omega = phi_{k+2}.

    phi = e^{B'} ^ Omega by construction (`pure_spinor_line`), with Omega =
    theta_1 ^ ... ^ theta_k decomposable, so phi_{k+2} = B' ^ Omega.  If
    A ^ Omega = B' ^ Omega, then (A - B') ^ Omega = 0, and Cartan's lemma
    puts A - B' in the ideal of the theta's: every power (A - B')^j with
    j > 0 dies on Omega, so e^{A - B'} ^ Omega = Omega and, 2-forms
    commuting, e^A ^ Omega = e^{B'} ^ e^{A - B'} ^ Omega = phi.  Conversely,
    A ^ Omega = phi_{k+2} is the degree-(k+2) part of e^A ^ Omega = phi.
    """
    if a2.wedge(omega_k) != phi.degree_part(k + 2):
        raise InvalidStructure("exp(A) ^ Omega does not reproduce the generator")


def canonical_spinor(s: GCStructure) -> CanonicalSpinorData:
    """Type and the canonical generator, read off as exp(B + i omega) ^ Omega.

    The adapted basis is (Delta, N_{1,0}, N_{0,1}), with e'^a its dual
    coframe.  Delta is the image of the Poisson structure beta (Gualtieri,
    arXiv:math/0703298, relation to Poisson geometry), reduced once
    (`_symplectic_distribution`).  The exponent
    A = a200 + a101 + a002 has no e'^a dual to the frame v_1..v_k of
    N_{1,0}, so i_v A = 0 and i_v(A ^ Omega) = A ^ i_v Omega for each v_j
    (A is even); hence
    A = i_{v_k}...i_{v_1} phi_{k+2} / i_{v_k}...i_{v_1} Omega.  The blocks
    a200 and a002 are the congruences P^T M_A P = E^T (F M_A F^T) E by the
    projectors P = F^T E = sum_a v_a e'^a onto Delta and onto N_{0,1}, and
    a101 is the rest.  Only those coframe rows E are built.  Delta is in
    reduced rows and N is spanned by unit vectors off its pivots p_a, so
    e'^a = dx^{p_a} on Delta.  On N_{0,1}, e'^a is the coframe of N on the
    complement columns (a 2k x 2k inverse) extended by e'^a(Delta_b) = 0,
    which puts minus its pairing with Delta_b at the pivot p_b.
    Two identities are verified exactly:

    - e^A ^ Omega = phi, decided on its degree-(k+2) part (`_check_exponent`);
    - omega^{n-k} ^ Omega ^ conj Omega != 0.
    """
    lft = eigenbundle(s)
    k = lft.type
    delta_rows, comp, k_beta = _symplectic_distribution(s)
    if k != k_beta:
        raise InvalidStructure("eigenbundle type disagrees with dim(T* cap JT*)/2")
    phi = pure_spinor_line(lft)
    if not mukai_coeff(phi, phi.conj()):
        raise InvalidStructure("degenerate structure: (phi, conj phi) = 0")
    m = s.dim
    omega_k = phi.degree_part(k)
    n10, n01 = _transverse_splitting(omega_k, comp)
    nd, kk = len(delta_rows), len(n10)
    if nd + 2 * kk != m:
        raise InvalidStructure(f"adapted basis has {nd + 2 * kk} vectors, expected {m}")
    top, low = phi.degree_part(k + 2), omega_k
    for v in n10:
        top, low = top.contract(v), low.contract(v)
    a2 = top.scale(ONE / low.coeff(0))
    _check_exponent(a2, omega_k, phi, k)
    amap = map_from_two_form(a2)

    def block(f, e):
        if not f:
            return MixedForm.zero(m)
        g = linalg.mat_mul(f, linalg.mat_mul(amap, linalg.transpose(f)))
        return two_form_from_map(linalg.mat_mul(linalg.transpose(e), linalg.mat_mul(g, e)))

    piv = [c for c in range(m) if c not in comp]
    units = [[ONE if c == p else ZERO for c in range(m)] for p in piv]
    on_comp = coframe([[v[c] for c in comp] for v in n10 + n01])[kk:]
    at_piv = linalg.mat_mul(on_comp, [[-d[c] for d in delta_rows] for c in comp])
    e01 = [[ZERO] * m for _ in on_comp]
    for full, row, at in zip(e01, on_comp, at_piv):
        for c, x in zip(comp + piv, row + at):
            full[c] = x
    a200, a002 = block(delta_rows, units), block(n01, e01)
    a101 = a2 - a200 - a002
    b2 = (a2 + a2.conj()).scale(HALF)
    om2 = (a2 - a2.conj()).scale(GaussRat(0, Fraction(-1, 2)))
    power = omega_k.wedge(omega_k.conj())
    for _ in range(s.half_dim - k):
        power = power.wedge(om2)
    if not power:
        raise InvalidStructure("omega^{n-k} ^ Omega ^ conj(Omega) vanishes")
    return CanonicalSpinorData(
        k=k,
        omega_k=omega_k,
        b2=b2,
        om2=om2,
        a2=a2,
        a200=a200,
        a101=a101,
        a002=a002,
        generator=phi,
        delta_basis=tuple(tuple(r) for r in delta_rows),
        n_complement=tuple(comp),
        n10=tuple(tuple(v) for v in n10),
    )


def type_and_canonical_spinor(s: GCStructure):
    data = canonical_spinor(s)
    return data.k, data


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------

def spin_operator(s: GCStructure):
    """phi -> (so-element of J) . phi in the spin representation."""
    so = s.blocks()
    return so.spin_act


def grading_project(s: GCStructure, phi: MixedForm, k: int) -> MixedForm:
    """Projection onto U^k, the ik-eigenspace of J in the spin representation."""
    n = s.half_dim
    if abs(k) > n:
        raise ValueError(f"grading index {k} outside [-{n}, {n}]")
    op = spin_operator(s)
    psi = phi
    denom = ONE
    for j in range(-n, n + 1):
        if j == k:
            continue
        psi = op(psi) - psi.scale(GaussRat(0, j))
        denom = denom * GaussRat(0, k - j)
    return psi.scale(ONE / denom)


def grading_components(s: GCStructure, phi: MixedForm):
    n = s.half_dim
    return {k: grading_project(s, phi, k) for k in range(-n, n + 1)}


# ---------------------------------------------------------------------------
# Poisson block and pointwise Darboux
# ---------------------------------------------------------------------------

def poisson_of(s: GCStructure):
    """Upper-right block: the shear map of the Poisson bivector, plus the bivector."""
    _, pmap, _, _ = linalg.blocks(s.j)
    return pmap, two_form_from_map(pmap, "mv")


class DarbouxData(Record, frozen=True):
    k: int
    btilde: MixedForm
    omega0: MixedForm
    delta_frame: tuple
    n_complement: tuple
    n10_frame: tuple
    generator: MixedForm
    omega_k: MixedForm


def darboux_point(s: GCStructure) -> DarbouxData:
    """Split the canonical exponent into a closed-at-a-point normal form.

    Returns Btilde and omega0 with exp(Btilde + i omega0) ^ Omega spanning the
    same spinor line as the canonical generator, omega0 nondegenerate on the
    symplectic distribution, and Omega inducing the transverse complex
    structure.

    The spinor line is checked as X ^ Omega = 0 for X = conj(a101) +
    conj(a002), without growing the exponential again.  Btilde + i omega0 =
    a2 + X, and `canonical_spinor` verified e^{a2} ^ Omega = phi, so
    e^{Btilde + i omega0} ^ Omega = e^{a2} ^ (e^X ^ Omega).  If X ^ Omega = 0
    then e^X ^ Omega = Omega and the form is phi itself.  Conversely, if it
    is c phi, then e^{a2} ^ (e^X ^ Omega - c Omega) = 0, and e^{a2} is
    invertible, so e^X ^ Omega = c Omega; its degree-k part gives c = 1 and
    its degree-(k+2) part X ^ Omega = 0.
    """
    data = canonical_spinor(s)
    a200, a101, a002 = data.a200, data.a101, data.a002
    btilde = (
        (a200 + a200.conj()).scale(HALF)
        + (a101 + a101.conj())
        + (a002 + a002.conj())
    )
    omega0 = (a200 - a200.conj()).scale(GaussRat(0, Fraction(-1, 2)))
    if (a101.conj() + a002.conj()).wedge(data.omega_k):
        raise InvalidStructure("darboux normal form lost the spinor line")
    delta = data.delta_basis
    gram = [[iu.contract(v).coeff(0) for v in delta] for iu in map(omega0.contract, delta)]
    if linalg.rank(gram) != len(delta):
        raise InvalidStructure("omega0 is degenerate on the symplectic distribution")
    return DarbouxData(
        k=data.k,
        btilde=btilde,
        omega0=omega0,
        delta_frame=data.delta_basis,
        n_complement=data.n_complement,
        n10_frame=data.n10,
        generator=data.generator,
        omega_k=data.omega_k,
    )
