"""Generalized complex structures at a point.

Validation, the +i eigenbundle, type and canonical spinor extraction, the
spinorial Z-grading, the Poisson block, and the constructive pointwise
decomposition into a complex times a symplectic piece.  The symplectic
distribution Delta is the image of the Poisson block beta, and the canonical
exponent is built from L's own data: the Gram matrix of eps on
E = pi_T(L) = Delta + N_{0,1}, written term by term over the coframe dual
to the adapted basis (Delta, N_{1,0}, N_{0,1}); the Darboux normal form is
its blocks' real and imaginary parts, coefficient by coefficient.  The
canonical rows of L = ker(J - i) come from one elimination of J - i, its
columns reversed, stopped at its rank m (`eigenbundle`).

Input is checked where it enters, a J when its GCStructure is built; what
follows by proof is not checked again, and a structure built from such data
is `Record._trusted`:

- J is real, J^2 = -1 and orthogonal, so L = ker(J - i) has dimension m, is
  isotropic and meets conj L only in 0 (`eigenbundle`); by Chevalley's
  criterion, then, (phi, conj phi) != 0 for its pure spinor phi.
- L cap conj L = 0 for the null space L of an input spinor is decided as
  rank(Im R) = m on its canonical rows R (`gc_from_pure_spinor`).
- The type is half of m - rank(beta), from the same reduction of beta that
  gives Delta = im beta (`_symplectic_distribution`).
- The canonical exponent A = B + i omega is the unique 2-form that equals
  B' on E x E and kills N_{1,0}, for phi = e^{B'} ^ Omega; it is verified
  by e^A ^ Omega = phi, decided on its degree-(k+2) part
  A ^ Omega = phi_{k+2} by Cartan's lemma (`_check_exponent`).
- The Darboux form keeps the spinor line exactly when X ^ Omega = 0 for
  X = conj(a101) + conj(a002) (see `darboux_point`).

Matrices act on column coordinates in the basis (e_1..e_m, e^1..e^m); the
blocks of J are (A, P_beta_map; B_map, -A^T), built and read through
linalg.from_blocks and linalg.blocks.
"""

from __future__ import annotations

from itertools import chain, product

from .record import Record
from .scalars import GaussRat, ONE, ZERO, IUNIT, add_term, as_gauss, is_real
from .forms import MixedForm, check_dim, map_from_two_form, two_form_from_map
from .clifford import SoElement
from .isotropics import (
    MaxIsotropic, _ann_basis, _pure_spinor, coframe, max_isotropic_from_spinor, reduced_form,
)
from . import linalg


class InvalidStructure(ValueError):
    pass


class GCStructure(Record, frozen=True):
    """An orthogonal complex structure J on (V + V*), checked when it is built.

    The constructor checks that J is real, J^2 = -1 and orthogonality, naming
    the failure; polynomial entries as exact identities.  Given J^2 = -1, J
    is orthogonal exactly when it lies in so(T + T*): J = [[A, beta],
    [B, -A^T]] with beta and B antisymmetric.  `_trusted` skips the checks.
    """

    dim: int  # m = 2n
    j: tuple

    def __post_init__(self):
        j, side = self.j, 2 * self.dim
        if len(j) != side or any(len(r) != side for r in j):
            raise InvalidStructure("J must be a square matrix of even side")
        check_dim(self.dim)
        if not all(map(is_real, chain.from_iterable(j))):
            i, k = next((i, k) for i, row in enumerate(j) for k, x in enumerate(row) if not is_real(x))
            raise InvalidStructure(f"J is not real: entry ({i},{k}) is {j[i][k]!r}")
        j2 = linalg.mat_mul(j, j)
        for i, k in product(range(side), repeat=2):
            if j2[i][k] != (-ONE if i == k else ZERO):
                raise InvalidStructure(f"J^2 != -1: entry ({i},{k}) is {j2[i][k]!r}")
        a, beta, b, d = linalg.blocks(j)
        if not linalg.is_antisymmetric(beta):
            raise InvalidStructure("J is not orthogonal: upper-right block beta is not antisymmetric")
        if not linalg.is_antisymmetric(b):
            raise InvalidStructure("J is not orthogonal: lower-left block B is not antisymmetric")
        if not linalg.mat_eq(d, [[-x for x in col] for col in zip(*a)]):
            raise InvalidStructure("J is not orthogonal: lower-right block is not -A^T")

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    def matrix(self):
        return [list(r) for r in self.j]

    def is_constant(self) -> bool:
        return all(x.is_const for r in self.j for x in r)

    def eval_at(self, point: dict) -> "GCStructure":
        """J at a real point: J's identities hold there and its values are real, so `_trusted`."""
        if not all(map(is_real, point.values())):
            raise InvalidStructure("J is evaluated only at real points")
        return GCStructure._trusted(self.dim, tuple(tuple(x.eval(point) for x in row) for row in self.j))

    def blocks(self) -> SoElement:
        a, beta, b, _ = linalg.blocks(self.j)
        return SoElement(self.dim, a=a, b_map=b, beta_map=beta)


def validate_gc(j) -> GCStructure:
    """The GCStructure of the matrix J given as rows; its constructor checks J."""
    return GCStructure(len(j) // 2, tuple(tuple(r) for r in j))


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
    """J1 + J2 on (V1 + V2) + (V1 + V2)*: each block of J is diag(block of J1, block of J2).

    It is `_trusted`: real, J^2 = -1 and orthogonal because J1 and J2 are.
    """
    m1, m2 = s1.dim, s2.dim

    def diag(x, y):
        return linalg.from_blocks(x, linalg.zeros(m1, m2), linalg.zeros(m2, m1), y)

    pairs = zip(linalg.blocks(s1.j), linalg.blocks(s2.j))
    j = linalg.from_blocks(*(diag(x, y) for x, y in pairs))
    return GCStructure._trusted(m1 + m2, tuple(tuple(r) for r in j))


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
    return validate_gc([[a * x + b * y for x, y in zip(rx, ry)] for rx, ry in zip(ji.j, jw.j)])


# ---------------------------------------------------------------------------
# eigenbundle, type, spinor
# ---------------------------------------------------------------------------

def eigenbundle(s: GCStructure) -> MaxIsotropic:
    """The +i eigenbundle as a maximal isotropic over the gaussian rationals.

    L = ker(J - i) needs no check.  J is real with J^2 = -1, so it is
    diagonalizable with eigenvalues +-i, conjugation swaps the two
    eigenspaces, and each has dimension m.  J is orthogonal, so for x, y in
    L, <x, y> = <Jx, Jy> = <ix, iy> = -<x, y> = 0.  conj L = ker(J + i), so
    L cap conj L = 0.

    Its canonical rows come from one elimination, of J - i with its 2m
    columns in reverse order.  The kernel basis of that elimination has one
    vector per free column f' of the reversed matrix, with a 1 at f', 0 at
    the other free columns, and its other nonzeros at pivot columns c' < f',
    since a reduced pivot row has entries only after its pivot.  Reversed
    back, with f = 2m - 1 - f', each vector has a 1 at f, 0 at the other
    free columns and nonzeros only after f; ordered by f, the vectors are in
    reduced row echelon form, which is unique, so they are the canonical
    rows of L (`isotropics.reduced_form`), with no second reduction.  J - i
    has rank m, so the elimination stops at m pivots (rank=m); it counts
    pivots, not rows, as the first m rows have rank m/2 for complex type.
    """
    m = s.dim
    last = 2 * m - 1
    a = [[as_gauss(x) for x in reversed(row)] for row in s.j]
    for i, row in enumerate(a):
        row[last - i] = row[last - i] - IUNIT
    return reduced_form([v[::-1] for v in reversed(linalg.kernel(a, rank=m))], m)


def _symplectic_distribution(s: GCStructure):
    """Delta = im beta in reduced rows, the columns off its pivots, and the type.

    beta = pi_T o J|_{T*} is the Poisson structure of J and its image is the
    symplectic distribution (Gualtieri, arXiv:math/0703298, relation to
    Poisson geometry).  beta is antisymmetric, so its rows span im beta too.
    J(0, xi) = (beta xi, -A^T xi) lies in T* exactly when beta xi = 0, and J
    is injective, so T* cap J(T*) has the dimension of ker beta, twice the
    type; it is J-invariant with J^2 = -1 on it, so that dimension is even.
    Returns (delta_rows, comp, type).
    """
    m = s.dim
    _, beta, _, _ = linalg.blocks(s.j)
    red, piv = linalg.rref([[as_gauss(x) for x in row] for row in beta])
    return red[: len(piv)], [c for c in range(m) if c not in piv], (m - len(piv)) // 2


def gc_type(s: GCStructure) -> int:
    """Half the real dimension of T* cap J(T*), from the rank of beta."""
    return _symplectic_distribution(s)[2]


def gc_from_pure_spinor(phi: MixedForm) -> GCStructure:
    """The structure whose +i eigenbundle is the null space L of phi.

    L must meet its conjugate only in 0, decided as rank(Im R) = m on its
    canonical rows R (see `MaxIsotropic.conj_intersection_dim`).  By
    Chevalley's criterion that is (phi, conj phi) != 0, so the Mukai pairing
    is not formed.
    """
    lft = max_isotropic_from_spinor(phi)
    if lft.conj_intersection_dim():
        raise InvalidStructure("null space meets its conjugate; spinor not of complex type")
    return _structure_of(lft)


def _structure_of(lft: MaxIsotropic) -> GCStructure:
    """J = U D U^-1, i on L and -i on conj L, for a maximal isotropic L with L cap conj L = 0.

    U has the canonical rows of L and their conjugates as columns, and
    D = diag(i, -i).  J is real: conj U = U P for the permutation P that
    swaps the halves and conj D = P D P, so conj J = U D U^-1.  J^2 = -1,
    and J is orthogonal because L and conj L are isotropic: <Jx, Jy> =
    <x, y> for x, y in L, in conj L, or one in each.  So J is `_trusted`.
    """
    m = lft.dim
    rows = lft.rows()
    u = linalg.transpose(rows + [[x.conj() for x in r] for r in rows])
    ud = [[x * IUNIT for x in row[:m]] + [x * -IUNIT for x in row[m:]] for row in u]
    return GCStructure._trusted(m, tuple(map(tuple, linalg.mat_mul(ud, linalg.inverse(u)))))


class CanonicalSpinorData(Record, frozen=True):
    """Generator = exp(B + i omega) ^ Omega with Omega decomposable of degree k."""

    k: int
    omega_k: MixedForm  # the decomposable lowest piece
    b2: MixedForm  # real 2-form
    om2: MixedForm  # real 2-form
    a2: MixedForm  # b2 + i om2, the exponent built from L: a200 + a101 + a002
    a200: MixedForm  # the (2,0,0) block, on Delta x Delta
    a101: MixedForm  # the (1,0,1) block, on Delta x N_{0,1}
    a002: MixedForm  # the (0,0,2) block, on N_{0,1} x N_{0,1}
    generator: MixedForm
    delta_basis: tuple  # real basis of the symplectic distribution
    n_complement: tuple  # real coordinate indices spanning the transverse N
    n10: tuple  # complex basis of N_{1,0}


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
    """Type and the canonical generator, as exp(B + i omega) ^ Omega.

    Delta is the image of the Poisson structure beta (Gualtieri,
    arXiv:math/0703298, relation to Poisson geometry), reduced once
    (`_symplectic_distribution`); N is spanned by the unit vectors off its
    pivots p_a.  phi = e^{B'} ^ Omega is `pure_spinor_line` of L =
    ker(J - i), with Omega = theta_1 ^ ... ^ theta_k for the annihilator
    theta of E = pi_T(L), reduced once for both (`isotropics._pure_spinor`).
    N_{0,1} is the part of N that kills Omega, so the kernel of theta on the
    complement columns, and N_{1,0} its conjugate.  The exponent A is read
    off L, with no contraction of phi:

    - A is the unique 2-form with A = B' on E x E and i_v A = 0 for v in
      N_{1,0}, since T_C = E + N_{1,0} and E = Delta + N_{0,1}.  The
      exponent read off phi by contraction, i_{v_k}...i_{v_1} phi_{k+2} /
      i_{v_k}...i_{v_1} Omega, has both properties (i_v^2 = 0; A - B' lies
      in the ideal of the theta's by Cartan's lemma, see `_check_exponent`),
      so it is this A.
    - On the basis f = (Delta rows, N_{0,1}) of E, A(f_x, f_y) = G[y][x]
      for G = X eps X^T, where X[r] is f_r at the pivot columns of L's
      Delta, since f_r is X[r] in that reduced basis, B' = -eps on it and
      G is antisymmetric.
    - A = sum_{x<y} G[y][x] e'^x ^ e'^y over the coframe e' dual to
      (Delta, N_{1,0}, N_{0,1}).  e'^a = dx^{p_a} on Delta, so a200 is G
      scattered at the pivot pairs; on N_{0,1}, e'^a is the coframe of N on
      the complement columns (a 2k x 2k inverse) extended by
      e'^a(Delta_b) = 0, which puts minus its pairing with Delta_b at p_b.
      The rest, sum_x e'^x ^ h[x], is written term by term: a101 has
      +-h_p[j] on e^p ^ e^j, minus when p > j, and a002 has P[i][j] -
      P[j][i] on e^i ^ e^j for P = e01^T h[N_{0,1}], one product.  b2 and
      om2 are the real and imaginary parts of A, coefficient by coefficient.

    e^A ^ Omega = phi is verified exactly, on its degree-(k+2) part
    (`_check_exponent`).  The rest holds by proof and is not checked: L's
    type is the type of beta, so Delta has m - 2k rows and N_{0,1} k; and
    omega^{n-k} ^ Omega ^ conj Omega is, up to a nonzero factor, the top part
    of (phi, conj phi), which is nonzero (module docstring).
    """
    lft = eigenbundle(s)
    k = lft.type
    delta_rows, comp, _ = _symplectic_distribution(s)
    m = s.dim
    theta = _ann_basis(lft.delta_basis, m)
    phi, omega_k = _pure_spinor(lft, theta)
    piv = [c for c in range(m) if c not in comp]
    nd = len(piv)
    n01 = [
        [x for _, x in sorted(zip(comp + piv, v + [ZERO] * nd))]
        for v in linalg.kernel([[th[c] for c in comp] for th in theta])
    ]
    n10 = [[c.conj() for c in v] for v in n01]
    kk = len(n10)
    on_comp = coframe([[v[c] for c in comp] for v in n10 + n01])[kk:]
    at_piv = linalg.mat_mul(on_comp, [[-d[c] for d in delta_rows] for c in comp])
    e01 = [[x for _, x in sorted(zip(comp + piv, row + at))] for row, at in zip(on_comp, at_piv)]
    lpiv = [next(c for c, x in enumerate(r) if x) for r in lft.delta_basis]
    coords = [[f[p] for p in lpiv] for f in delta_rows + n01]
    gram = linalg.mat_mul(coords, linalg.mat_mul(lft.eps, linalg.transpose(coords)))
    a200 = MixedForm(m, {
        1 << piv[a] | 1 << piv[b]: gram[b][a] for a in range(nd) for b in range(a + 1, nd)
    })
    # h[x] = sum_{y > x in N_{0,1}} G[y][x] e'^y, so A - a200 = sum_x e'^x ^ h[x]
    h = linalg.mat_mul(
        [[gram[nd + j][r] if nd + j > r else ZERO for j in range(kk)] for r in range(nd + kk)], e01
    )
    a101 = {}
    for p, hp in zip(piv, h):
        for j, x in enumerate(hp):
            if x and j != p:
                add_term(a101, 1 << p | 1 << j, x if p < j else -x)
    pm = linalg.mat_mul(linalg.transpose(e01), h[nd:]) if kk else []
    a002 = {1 << i | 1 << j: c for j in range(len(pm)) for i in range(j) if (c := pm[i][j] - pm[j][i])}
    a101, a002 = MixedForm._raw(m, a101, "form"), MixedForm._raw(m, a002, "form")
    a2 = a200 + a101 + a002
    _check_exponent(a2, omega_k, phi, k)
    b2, om2 = _re_im(a2)
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


def _re_im(f: MixedForm, factor=1):
    """factor Re f and factor Im f, coefficient by coefficient (GaussRat coefficients)."""
    raw, ts = GaussRat._raw, f.terms.items()
    re = {x: raw(factor * c.a, 0, c.q) for x, c in ts if c.a}
    im = {x: raw(factor * c.b, 0, c.q) for x, c in ts if c.b}
    return MixedForm._raw(f.dim, re, "form"), MixedForm._raw(f.dim, im, "form")


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

    Btilde = Re a200 + 2 Re (a101 + a002) and omega0 = Im a200, coefficient
    by coefficient; D W D^T is minus omega0's Gram on Delta's rows D, for
    W = `map_from_two_form`(omega0).
    """
    data = canonical_spinor(s)
    a101, a002 = data.a101, data.a002
    re200, omega0 = _re_im(data.a200)
    btilde = re200 + _re_im(a101 + a002, 2)[0]
    if (a101.conj() + a002.conj()).wedge(data.omega_k):
        raise InvalidStructure("darboux normal form lost the spinor line")
    delta = data.delta_basis
    gram = linalg.mat_mul(delta, linalg.mat_mul(map_from_two_form(omega0), linalg.transpose(delta)))
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
