"""Maximal isotropic subspaces of (V + V*) x C and the pure spinor correspondence.

Everything here is pointwise linear algebra over gaussian rationals: canonical
(Delta, eps) data, spinor lines in both directions, single-block transforms,
and the tensor product of linear Dirac structures.  `canonical_form` checks
and reduces a spanning set from outside.  `reduced_form` reads the canonical
data off rows already reduced: by `gcs.eigenbundle`'s one elimination, or by
one `linalg.rref` of a span maximal isotropic by proof (`_reduced_span`),
as images of L under orthogonal maps and (X, xi) -> (xi, X) are.  A
2-form given by its components on a basis is built over the dual coframe
(`coframe`); on the canonical Delta, in reduced row echelon form, that
coframe is the pivot coordinates (`_extension_of_eps`).
"""

from __future__ import annotations

from .record import Record
from .scalars import HALF, ZERO, GaussRat, all_gauss, as_gauss, lane
from .forms import MixedForm, check_dim, covector_form
from .clifford import GenVector, BlockTransform, pairing_matrix
from . import linalg


class NotIsotropic(ValueError):
    pass


class NotPure(ValueError):
    pass


class MaxIsotropic(Record, frozen=True):
    """Maximal isotropic with canonical data.

    basis holds the canonical rows, the reduced row echelon form of the
    spanning set; delta_basis spans the projection to V (the V parts of the
    rows pivoting in V, so itself in reduced row echelon form); eps[a][b] is
    the induced 2-form on that basis; type k = dim - dim(delta);
    parity = k mod 2.
    """

    dim: int
    basis: tuple
    delta_basis: tuple
    eps: tuple
    type: int
    parity: int

    def rows(self):
        return [v.coords() for v in self.basis]

    def conj(self) -> "MaxIsotropic":
        """The conjugate space, read off the canonical data.

        Conjugation commutes with row reduction and the pivots of the reduced
        rows are 1, which is real, so the conjugated canonical rows are the
        canonical rows of the conjugate: the same pivots, type and parity,
        with Delta and eps conjugated entry by entry.  The reduced row echelon
        form is unique, so this is `canonical_form` of the conjugated rows.
        """
        return MaxIsotropic(
            dim=self.dim,
            basis=tuple(v.conj() for v in self.basis),
            delta_basis=_conj_rows(self.delta_basis),
            eps=_conj_rows(self.eps),
            type=self.type,
            parity=self.parity,
        )

    def flip(self) -> "MaxIsotropic":
        """Reversal L -> L^T = {X - xi}, maximal isotropic since X - xi negates the pairing."""
        return _reduced_span([v.flip().coords() for v in self.basis], self.dim)

    def contains(self, v: GenVector) -> bool:
        return linalg.span_contains(self.rows(), [as_gauss(c) for c in v.coords()])

    def equals(self, other: "MaxIsotropic") -> bool:
        return self.dim == other.dim and linalg.span_equal(self.rows(), other.rows())

    def intersection_dim(self, other: "MaxIsotropic") -> int:
        joint = linalg.rank(self.rows() + other.rows())
        return self.dim + other.dim - joint

    def conj_intersection_dim(self) -> int:
        """dim(L cap conj L) = m - rank(Im R), for R the canonical rows.

        [R; conj R] spans the rows of Re R and Im R.  Re R has the unit
        pivots of R and Im R vanishes on the pivot columns, so no nonzero
        combination of Re R lies in the span of Im R, and
        rank [R; conj R] = m + rank(Im R) = 2m - dim(L cap conj L).
        """
        im = [[GaussRat._raw(x.b, 0, x.q) for x in v.coords()] for v in self.basis]
        return self.dim - linalg.rank(im)

    def is_real(self) -> bool:
        """L = conj L, that is Im R = 0 for the canonical rows R (see `conj`)."""
        return not any(x.b for v in self.basis for x in v.coords())


class SpinorLine(Record, frozen=True):
    """A pure spinor line, understood projectively."""

    generator: MixedForm

    def __post_init__(self):
        if not self.generator:
            raise NotPure("a spinor line needs a nonzero generator")
        vecs, pure = null_space(self.generator)
        if not pure:
            raise NotPure(
                f"generator has null space of dimension {len(vecs)}, "
                f"expected {self.generator.dim}"
            )

    def equals(self, other: "SpinorLine") -> bool:
        return self.generator.proportional_to(other.generator)

    def annihilator(self) -> "MaxIsotropic":
        return max_isotropic_from_spinor(self.generator)


def _conj_rows(rows):
    return tuple(tuple(x.conj() for x in r) for r in rows)


def spinor_line_of(iso: "MaxIsotropic") -> SpinorLine:
    """The line of `pure_spinor_line(iso)`, which is pure and nonzero: `_trusted`."""
    return SpinorLine._trusted(pure_spinor_line(iso))


def canonical_form(vectors, dim: int) -> MaxIsotropic:
    """Validate a spanning set and compute canonical (Delta, eps, type, parity).

    The checked path for vectors from outside, as the CLI's job vectors are;
    tests compare this package's constructions with it.  Raises NotIsotropic
    naming the first pair (i, j), i <= j, that does not pair to 0, or on
    rank deficiency.  The rows are reduced once and read off by `reduced_form`.
    """
    check_dim(dim)
    coords = [v.coords() for v in vectors]
    for i, row in enumerate(pairing_matrix(coords, coords)):
        for j in range(i, len(coords)):
            if as_gauss(row[j]):
                raise NotIsotropic(
                    f"basis vectors {i} and {j} have inner product {HALF * row[j]!r}, not 0"
                )
    red, piv = linalg.rref(coords)
    if len(piv) != dim:
        raise NotIsotropic(f"spanning set has rank {len(piv)}, expected {dim}")
    return reduced_form(red[:dim], dim)


def reduced_form(rows, dim: int) -> MaxIsotropic:
    """The canonical data of the span of dim rows already in reduced row echelon form.

    Entries before a row's pivot are 0 and the pivot is 1, so a row pivots
    in V exactly when its V part is nonzero: those rows are the lifts of
    Delta, in pivot order, and the rest annihilate V.
    """
    lifts = []
    ann = []
    for r in rows:
        (lifts if any(r[:dim]) else ann).append(GenVector.from_coords(r))
    delta = [list(v.vec) for v in lifts]
    k = dim - len(delta)
    eps = linalg.mat_mul([u.covec for u in lifts], linalg.transpose([w.vec for w in lifts]))
    return MaxIsotropic(
        dim=dim,
        basis=tuple(lifts + ann),
        delta_basis=tuple(tuple(d) for d in delta),
        eps=tuple(tuple(row) for row in eps),
        type=k,
        parity=k % 2,
    )


def _reduced_span(rows, dim: int) -> MaxIsotropic:
    """`reduced_form` of dim independent rows spanning a maximal isotropic, reduced once."""
    return reduced_form(linalg.rref(rows)[0][:dim], dim)


def tangent_space(dim: int) -> MaxIsotropic:
    check_dim(dim)
    return reduced_form(linalg.identity(2 * dim)[:dim], dim)  # unit rows: already reduced


def cotangent_space(dim: int) -> MaxIsotropic:
    check_dim(dim)
    return reduced_form(linalg.identity(2 * dim)[dim:], dim)


def graph_of_two_form(b_form: MixedForm) -> MaxIsotropic:
    """{X + i_X B}: the B-transform of V."""
    t = BlockTransform.from_two_form(b_form)
    return transform(tangent_space(b_form.dim), t)


def graph_of_bivector(b_mv: MixedForm) -> MaxIsotropic:
    """{i_xi beta + xi}: the beta-transform of V*."""
    t = BlockTransform.from_bivector(b_mv)
    return transform(cotangent_space(b_mv.dim), t)


def transform(iso: MaxIsotropic, t: BlockTransform) -> MaxIsotropic:
    """t(L), maximal isotropic since t is orthogonal and invertible."""
    mat = t.orth_matrix()
    return _reduced_span([linalg.mat_vec(mat, v.coords()) for v in iso.basis], iso.dim)


def _ann_basis(delta_rows, dim):
    """Covectors annihilating the span of the given V-vectors."""
    if not delta_rows:
        return linalg.identity(dim)
    return linalg.kernel([list(r) for r in delta_rows])


def coframe(basis):
    """The covectors e'^a dual to a basis e'_a of V, e'^a(e'_b) = delta_ab, as rows.

    They are the rows of the inverse of the matrix whose columns are the
    basis vectors.
    """
    return linalg.inverse(linalg.transpose([list(v) for v in basis]))


def _extension_of_eps(iso: MaxIsotropic, variance="form"):
    """sum_{a<b} eps_ab e'^a ^ e'^b: the 2-form with i*B = eps on Delta.

    The coframe e'^a is dual to Delta plus the unit vectors off its pivots,
    so B vanishes on that complement.  The sum is one congruence: for R the
    rows e'^a and E the antisymmetric matrix with E_ab = eps_ab for a < b,
    e'^a ^ e'^b has components R_ai R_bj - R_aj R_bi, so
    B(e_i, e_j) = (R^T E R)_ij.  Delta is in reduced row echelon form
    (`canonical_form`), so e'^a is the coordinate covector of the pivot
    column p_a of row a, R selects the pivot columns, and R^T E R is eps
    placed at (p_a, p_b), with p_a < p_b for a < b.
    """
    piv = [next(i for i, x in enumerate(row) if x) for row in iso.delta_basis]
    terms = {
        (1 << piv[a]) | (1 << piv[b]): row[b]
        for a, row in enumerate(iso.eps)
        for b in range(a + 1, len(row))
    }
    return MixedForm(iso.dim, terms, variance)


def pure_spinor_line(iso: MaxIsotropic) -> MixedForm:
    """Generator of the pure spinor line K_L = e^B theta_1 ^ ... ^ theta_k.

    B extends -eps off Delta, vanishing on a pivot-selected complement.  e^B
    is formed first, each coefficient a Pfaffian of B by the recursion that
    `null_space` proves (`_exp_two_form`), so no power of B is computed;
    Omega = theta_1 ^ ... ^ theta_k is then wedged on once.
    """
    return _pure_spinor(iso, _ann_basis(iso.delta_basis, iso.dim))[0]


def _pure_spinor(iso: MaxIsotropic, theta):
    """(e^B ^ Omega, Omega) of `pure_spinor_line`, for theta the `_ann_basis` of its Delta."""
    omega = MixedForm.one(iso.dim)
    for th in theta:
        omega = omega.wedge(covector_form(iso.dim, th))
    return _exp_two_form(-_extension_of_eps(iso)).wedge(omega), omega


def null_space(phi: MixedForm):
    """All v with v . phi = 0, plus a purity flag.  Exact kernel computation.

    phi is pure iff its null space has dimension m = phi.dim (Chevalley).
    The coefficients of phi are put on one integer lane (`_lane_terms`), and
    purity is decided on them before any row of v . phi = 0 is built
    (Gualtieri, arXiv:math/0703298, section 2, after Chevalley):

    - The flip.  I0 is the nonzero blade of lowest degree, ties broken by
      mask, and psi = prod_{i in I0} (e_i + e^i) . phi (`_flipped`).  Each
      factor is a Pin(m, m) reflection, so it preserves purity, and it maps
      blade J to J ^ {i}, so psi_0 = +-phi_I0 != 0.
    - The recursion.  A pure spinor with psi_0 != 0 has type 0, so it is
      psi_0 e^B, and the coefficient of e^J in e^B is the Pfaffian Pf(B_J).
      Expanding Pf along the row of j0 = min J gives, for every even J with
      |J| >= 4,
          psi_0 psi_J = sum_{k in J, k > j0} (-1)^#{J strictly between j0 and k}
                        psi_{j0 k} psi_{J - {j0, k}}.
      Conversely, if psi has no odd blade and every recursion holds,
      induction on |J| gives psi_J = psi_0 Pf(B_J) with B_ij = psi_ij / psi_0,
      so psi = psi_0 e^B is pure (`_is_exp_two_form`).  A failed check
      therefore means that phi is not pure.  The identities are homogeneous
      of degree 2, so they hold on the lane exactly when they hold for phi.

    A pure phi has L_phi spanned by m vectors read off psi (`_pure_rows`).
    L_phi is maximal isotropic, so it is its own orthogonal: the kernel of
    the m rows <., v>, the vectors with V and V* swapped.
    `linalg.integer_kernel` returns it in the basis that the full system
    of v . phi = 0 gives, since that basis depends only on the kernel: one
    vector per free column f, with a 1 at f and 0 at the other free columns.

    When the check fails, each blade of v . phi gives a row {column: (a, b)}
    of gaussian integers over the 2m columns of V + V*, read straight from
    phi (`_action_rows`), and `linalg.integer_kernel` eliminates them into
    the smaller null space.  `max_isotropic_from_spinor` (so
    `gcs.gc_from_pure_spinor` and the spinor round trips), `SpinorLine` and
    the `null-space` and `type-map` commands all come here.  A coefficient
    that is a non-constant Poly raises ValueError.
    """
    dim = phi.dim
    terms = _lane_terms(phi)
    rows = _pure_rows(terms, dim)
    if rows is None:
        rows = _action_rows(terms, dim)
    else:
        rows = [{(c + dim) % (2 * dim): x for c, x in r.items()} for r in rows]
    ker = linalg.integer_kernel(rows, 2 * dim)
    vectors = [GenVector.from_coords(v) for v in ker]
    return vectors, len(vectors) == dim


def _lane_terms(phi: MixedForm):
    """{mask: (a, b)}: the coefficients of a nonzero form phi on one integer lane."""
    if not phi:
        raise ValueError("the zero form has no null space")
    if phi.variance != "form":
        raise ValueError("null spaces are defined for forms")
    cs = list(phi.terms.values())
    if not all_gauss(cs):
        cs = [as_gauss(c) for c in cs]
    return dict(zip(phi.terms, lane(cs)[1]))


def _pure_rows(terms, dim):
    """Rows {column: (a, b)} of m vectors spanning L_phi, or None if phi is not pure.

    phi is given by its lane terms.  Vector i of L_psi is psi_0 e_i -
    sum_k psi_ik e^k (psi_ki = -psi_ik), since i_{e_i} e^B =
    (sum_k B_ik e^k) ^ e^B.  For u = e_i + e^i, L_psi = u L_phi u, and
    u v u = 2 <u, v> u - v swaps X_i and xi_i of v and negates the rest, so
    up to the sign of each vector L_phi is L_psi with (X_k, xi_k) ->
    (-xi_k, -X_k) at each k in I0.  Column k holds X_k, column dim + k xi_k.
    """
    flip = 0 if 0 in terms else min(terms, key=lambda mask: (mask.bit_count(), mask))
    psi = _flipped(terms, flip)
    if not _is_exp_two_form(psi, dim):
        return None
    a0, b0 = psi[0]
    rows = []
    for i in range(dim):
        bit = 1 << i
        row = {}
        for k in range(dim):
            flipped = flip >> k & 1
            if k == i:
                if flipped:
                    row[dim + k] = -a0, -b0
                else:
                    row[k] = a0, b0
                continue
            x = psi.get(bit | (1 << k))
            if x is None:
                continue
            a, b = x if i < k else (-x[0], -x[1])  # psi_ik
            if flipped:
                row[k] = a, b
            else:
                row[dim + k] = -a, -b
        rows.append(row)
    return rows


def _flipped(terms, flip):
    """prod_{i in flip} (e_i + e^i) . phi on the lane terms {mask: (a, b)} of phi.

    e_i + e^i maps blade J to J ^ {i}, by contraction or by wedge, with the
    sign (-1)^#{bits of J below i}; the lowest i acts first.
    """
    if not flip:
        return terms
    psi = {}
    for mask, (a, b) in terms.items():
        odd = False
        rem = flip
        while rem:
            low = rem & -rem
            rem ^= low
            if (mask & (low - 1)).bit_count() & 1:
                odd = not odd
            mask ^= low
        psi[mask] = (-a, -b) if odd else (a, b)
    return psi


def _is_exp_two_form(psi, dim):
    """Whether psi, lane terms with psi_0 != 0, is psi_0 e^B for a 2-form B.

    True exactly when psi has no odd blade and the Pfaffian recursion of
    `null_space` holds at every even J with |J| >= 4, in Z[i]; the blades
    are tried in ascending order and the first failure answers.  Each
    gaussian integer a + bi is packed as a + b s with s = 2^w: modulo
    N = s^2 + 1, s^2 = -1, so one integer product stands for a product in
    Z[i].  A recursion has at most dim products, each part of each below
    2^(2 top + 1) for top the bit length of the parts of psi, so the real
    and imaginary parts u, v of its residue lie below s / 2, and
    u + v s = 0 mod N, with |u + v s| < N, forces u = v = 0.
    """
    top = 0
    for mask, (a, b) in psi.items():
        if mask.bit_count() & 1:
            return False
        top |= abs(a) | abs(b)
    w = 2 * top.bit_length() + dim.bit_length() + 3
    vals = [0] * (1 << dim)
    for mask, (a, b) in psi.items():
        vals[mask] = a + (b << w)
    mod = (1 << 2 * w) + 1
    p0 = vals[0]
    for mask in range(15, 1 << dim):
        n = mask.bit_count()
        if n & 1 or n < 4:
            continue
        low = mask & -mask
        rest = mask ^ low
        acc = -p0 * vals[mask]
        neg = False
        rem = rest
        while rem:
            k = rem & -rem
            rem ^= k
            if neg:
                acc -= vals[low | k] * vals[rest ^ k]
            else:
                acc += vals[low | k] * vals[rest ^ k]
            neg = not neg
        if acc % mod:
            return False
    return True


def _exp_two_form(b_form: MixedForm) -> MixedForm:
    """e^B for a 2-form B with constant coefficients, by the Pfaffian recursion.

    The twin of `_is_exp_two_form`: the coefficient of e^I in e^B is
    Pf(B_I), so e_0 = 1 and, for even I with j0 = min I,
        e_I = sum_{k in I, k > j0} (-1)^#{I strictly between j0 and k} B_{j0 k} e_{I - {j0, k}}.
    B goes on one lane, B = N / q with N gaussian integers, so e_I is an
    integer pair over q^(|I| / 2).  Only the columns that B reaches are
    walked, as the bits of a local mask.  Raises ValueError unless B is a
    2-form.
    """
    if any(mask.bit_count() != 2 for mask in b_form.terms):
        raise ValueError("the Pfaffian recursion needs a 2-form")
    q, nums = lane([as_gauss(c) for c in b_form.terms.values()])
    support = 0
    for mask in b_form.terms:
        support |= mask
    cols = [i for i in range(b_form.dim) if support >> i & 1]
    full = [0] * (1 << len(cols))  # local mask -> blade
    for mask in range(1, len(full)):
        low = mask & -mask
        full[mask] = full[mask ^ low] | 1 << cols[low.bit_length() - 1]
    bit = {c: 1 << i for i, c in enumerate(cols)}
    pairs = {}
    for mask, x in zip(b_form.terms, nums):
        low = mask & -mask
        pairs[bit[low.bit_length() - 1] | bit[(mask ^ low).bit_length() - 1]] = x
    vals = [None] * len(full)
    vals[0] = 1, 0
    for mask in range(3, len(full)):
        if mask.bit_count() & 1:
            continue
        low = mask & -mask
        rest = mask ^ low
        u = v = 0
        neg = False
        rem = rest
        while rem:
            k = rem & -rem
            rem ^= k
            x, y = pairs.get(low | k), vals[rest ^ k]
            if x is not None and y is not None:
                (a, b), (c, d) = x, y
                if neg:
                    u, v = u - a * c + b * d, v - a * d - b * c
                else:
                    u, v = u + a * c - b * d, v + a * d + b * c
            neg = not neg
        if u or v:
            vals[mask] = u, v
    terms = {
        full[mask]: GaussRat._raw(x[0], x[1], q ** (mask.bit_count() >> 1))
        for mask, x in enumerate(vals)
        if x is not None
    }
    return MixedForm._raw(b_form.dim, terms, b_form.variance)


def _action_rows(terms, dim, rhs=None):
    """The rows {column: (a, b)} of v . phi = 0, one per blade it reaches.

    phi is given by its lane terms {mask: (a, b)}; rows are built as the
    elimination reads them.  With rhs, lane terms {mask: (a, b)} of a form t
    on phi's lane, they are the augmented rows of v . phi = t instead: each
    row also holds t's coefficient of its blade at column 2 dim, and a blade
    of t that v . phi does not reach gives the row {2 dim: t's coefficient}
    (`integrability.check_spinor_integrability` solves them at its samples).
    """
    negs = {mask: (-a, -b) for mask, (a, b) in terms.items()}

    def row(target):
        # v . phi = i_X phi + xi ^ phi reaches blade `target` from the blade
        # target ^ e_i of phi: by contraction (column i) when i is not in
        # target, by wedge (column dim + i) when it is; the sign is the same,
        # - when an odd number of the bits of target lie below i
        out = {}
        odd = False
        for i in range(dim):
            bit = 1 << i
            c = (negs if odd else terms).get(target ^ bit)
            if target & bit:
                if c is not None:
                    out[dim + i] = c
                odd = not odd
            elif c is not None:
                out[i] = c
        return out

    blades = {mask ^ (1 << i) for mask in terms for i in range(dim)}
    if rhs is None:
        return map(row, blades)

    def augmented(target):
        out = row(target)
        t = rhs.get(target)
        if t is not None:
            out[2 * dim] = t
        return out

    return map(augmented, blades.union(rhs))


def max_isotropic_from_spinor(phi: MixedForm) -> MaxIsotropic:
    """L_phi with its canonical data, for a pure spinor phi.

    The null space needs no isotropy check: the Clifford relation gives
    v . v . phi = <v, v> phi, so v . phi = 0 and phi != 0 make <v, v> = 0,
    and <u, v> = 0 follows for u, v in the null space from
    2 <u, v> = <u + v, u + v> - <u, u> - <v, v>.  A pure phi has a null
    space of dimension m, so the m vectors that `null_space` reads off the
    flipped spinor (`_pure_rows`) are reduced once (`linalg.integer_rref`)
    and read off by `reduced_form`.
    """
    rows = _pure_rows(_lane_terms(phi), phi.dim)
    if rows is None:
        vecs, _ = null_space(phi)
        raise NotPure(f"null space has dimension {len(vecs)}, expected {phi.dim}")
    red, _ = linalg.integer_rref(rows, 2 * phi.dim)
    return reduced_form(red, phi.dim)


def graph_over_cotangent(iso: MaxIsotropic):
    """Dual description L(F, gamma) plus a bivector witness.

    Returns (f_basis, gamma, beta_witness) where F = pi_{V*} L, gamma is the
    induced 2-form on F, and exp(beta).det(Ann(L cap V)) spans the same spinor
    line as pure_spinor_line(L).  The witness is one representative of the
    class fixed only modulo directions along L cap V.  The swap
    (X, xi) -> (xi, X) is orthogonal, so the swapped L needs no check.
    """
    dim = iso.dim
    swapped = _reduced_span([list(v.covec) + list(v.vec) for v in iso.basis], dim)
    f_basis = swapped.delta_basis
    gamma = swapped.eps
    beta_mv = _extension_of_eps(swapped, "mv")
    return list(f_basis), [list(r) for r in gamma], beta_mv


def dual_spinor_of(iso: MaxIsotropic) -> MixedForm:
    """exp(beta) . (f_1 ^ ... ^ f_r), the graph_over_cotangent spinor line."""
    f_basis, _, beta_mv = graph_over_cotangent(iso)
    phi = MixedForm.one(iso.dim)
    for f in f_basis:
        phi = phi.wedge(covector_form(iso.dim, f))
    if beta_mv:
        t = BlockTransform.from_bivector(beta_mv)
        phi = t.spinor(phi)
    return phi


def tensor_product(l1: MaxIsotropic, l2: MaxIsotropic) -> MaxIsotropic:
    """L1 x L2 = {X + xi + eta : X + xi in L1, X + eta in L2}.

    The pairing of two such vectors is the sum of their pairings in L1 and
    in L2, so the span is isotropic and needs no check; `row_space_basis`
    already gives it in reduced row echelon form for `reduced_form`.  Its
    rank m is not checked either: for E_j = pi_T(L_j), the pairs (x1, x2) in
    L1 x L2 with pi_T x1 = pi_T x2 span 2m - dim(E1 + E2), and the map to
    X + xi + eta has kernel Ann(E1 + E2), the pairs (-eta, eta).
    """
    if l1.dim != l2.dim:
        raise ValueError("dimension mismatch")
    m = l1.dim
    rows1 = l1.rows()
    rows2 = l2.rows()
    constraint = [
        [r[coord] for r in rows1] + [-r[coord] for r in rows2] for coord in range(m)
    ]
    # a kernel vector (c1, c2) gives sum c1 rows1 + (0, sum c2 covec of rows2)
    stacked = rows1 + [[ZERO] * m + row[m:] for row in rows2]
    return reduced_form(linalg.row_space_basis(linalg.mat_mul(linalg.kernel(constraint), stacked)), m)


def transverse(l1: MaxIsotropic, l2: MaxIsotropic) -> bool:
    return l1.intersection_dim(l2) == 0
