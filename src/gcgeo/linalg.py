"""Exact linear algebra over gaussian rationals and their polynomials.

Matrices are plain lists of lists.  A map of T + T* is a 2n x 2n matrix in
the basis (e_1..e_n, e^1..e^n); `from_blocks` and `blocks` are the only code
that assembles or splits its four n x n blocks.

Products run in the integer lane of `scalars`, in one kernel, `_product`;
`mat_vec` is the one-column case of `mat_mul`.  Each row of the left factor
and each column of the right one is scaled once to gaussian integers by the
lcm of its coefficient denominators (`_lane`, which reads ints and Fractions
as GaussRats and splits each Poly into its constant term and the rest), so
constant terms add up in two plain ints per entry, skipping zero factors,
and only the other terms of Polys go through a dict by exponent.
`GaussRat._raw` runs once per nonzero constant entry of the result, and a
Poly entry is built from its integers with one content gcd.  An entry
of the product is ZERO when no nonzero products reach it, and a Poly exactly
when one of them has a Poly factor, as the per-entry sum would give.  All
nonzero Polys of both factors must be over one chart, whether or not they
meet in a product, or `MismatchedVariables` is raised.  `eval_matrix`
computes each monomial once per matrix.

Row reduction, kernels, solves, ranks and inverses are defined over the
GaussRat field and share one Gauss-Jordan core, `_eliminate`.  It works on
sparse rows {column: (a, b)} of gaussian integers a + bi: each input row is
scaled by the lcm of its denominators, a row is reduced by a pivot row with
integer multiply-and-subtract steps, and each pivot row is kept primitive by
one gcd over its integers when it is made or changed.  No entry is normalised
inside the loop; `GaussRat._raw` runs once per entry of the result.  The core
never visits a zero entry, and rows are read as it consumes them.  `rref`,
`rank`, `inverse`, `row_space_basis` and the `span_*` tests take dense rows
and return what a dense elimination returns.  `kernel` and `solve` also take
dict rows plus a column count.  `integer_kernel`, `integer_rref` and
`integer_solve` are `kernel`, `rref` and `solve` for rows that are already
gaussian integers, as `_eliminate` takes them and consumes them: a caller
must not reuse them.  `isotropics.null_space` builds its rows that way, and
so do `integrability.ansatz_system` (solved by `integer_solve` in the spinor
witness, its kernel taken in the pullback) and `branes.brane_check` for its
ell frame.  A kernel whose rank is known by proof stops its elimination at
that many pivots and reads no further row (`gcs.eigenbundle`, m of the 2m
rows of J - i); no other caller passes a rank.  `det` keeps its own dense
loop.  Nothing here inverts a Poly matrix: a space-filling brane reads
omega^-1 off the Poisson block of J.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .scalars import (
    GaussRat, MismatchedVariables, ONE, Poly, ZERO, all_gauss, as_gauss, guard_exponents, lane,
    lane_poly, poly_lane,
)
from .forms import CapacityError


def zeros(r, c):
    return [[ZERO for _ in range(c)] for _ in range(r)]


def identity(n, one=ONE, zero=ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """a b; an empty b is a product with no columns."""
    if not b:
        return [[] for _ in a]
    if any(len(r) != len(b[0]) for r in b):
        raise ValueError("the rows of a matrix differ in length")
    return _product(a, list(zip(*b)), len(b))


def mat_vec(a, v):
    """a v, the one-column case of `mat_mul`."""
    return [r[0] for r in _product(a, [v], len(v))]


def _product(a, cols, k):
    """a b for the columns cols of a right factor b with k rows.

    Row i of the product accumulates the constant terms of a[i][t] b[t][j]
    on the lanes of `_lane` in two plain ints per column, skipping zero
    factors.  When Polys take part, a second pass over the row marks the
    entries that have a product with a Poly factor and adds up their other
    terms in a dict by packed exponent, a product's exponent the sum of its
    factors'.  Entry (i, j) is then divided by the denominators of row i of
    a and column j of b: one `GaussRat._raw` for a constant entry, one guard
    check (`guard_exponents`) and one content gcd for a Poly entry
    (`lane_poly`).
    """
    if any(map(k.__ne__, map(len, a))):
        raise ValueError(
            f"cannot multiply rows of lengths {sorted({len(r) for r in a})} by {k} rows"
        )
    charts = set()
    cols = [_lane(col, charts) for col in cols]
    rows = [_lane(row, charts) for row in a]
    if len(charts) > 1:
        raise MismatchedVariables(f"polynomials over {sorted(charts)} cannot be combined")
    n = len(cols)
    dens = [lb for lb, _ in cols]
    # row t of b: (j, c, d) per nonzero constant term; when Polys take part
    # also j per nonzero entry, j per nonzero Poly and (j, terms) per Poly
    # with other terms
    consts = [[] for _ in range(k)]
    for j, (_, ys) in enumerate(cols):
        for t, c, d, _ in ys:
            if c or d:
                consts[t].append((j, c, d))
    if charts:
        (names,) = charts
        nonzero, polys, terms = [[] for _ in range(k)], [[] for _ in range(k)], [[] for _ in range(k)]
        for j, (_, ys) in enumerate(cols):
            for t, _, _, yt in ys:
                nonzero[t].append(j)
                if yt is not None:
                    polys[t].append(j)
                    if yt:
                        terms[t].append((j, yt))
    raw = GaussRat._raw
    out = []
    for la, xs in rows:
        us = [0] * n
        vs = [0] * n
        for t, p, q, _ in xs:
            if q:
                for j, c, d in consts[t]:
                    us[j] += p * c - q * d
                    vs[j] += p * d + q * c
            elif p:
                for j, c, d in consts[t]:
                    us[j] += p * c
                    vs[j] += p * d
        if not charts:
            out.append([
                raw(u, v, la * lb) if u or v else ZERO
                for u, v, lb in zip(us, vs, dens)
            ])
            continue
        marked, accs = set(), {}
        for t, p, q, xt in xs:
            if xt is None:
                marked.update(polys[t])
            else:
                marked.update(nonzero[t])
                if xt:
                    for j, c, d in consts[t]:
                        _add_scaled(accs, j, xt, c, d)
                    for j, yt in terms[t]:
                        for e1, r1, s1 in xt:
                            _add_scaled(accs, j, [
                                (e1 + e2, r2, s2) for e2, r2, s2 in yt
                            ], r1, s1)
            if p or q:
                for j, yt in terms[t]:
                    _add_scaled(accs, j, yt, p, q)
        new = []
        for j, (u, v, lb) in enumerate(zip(us, vs, dens)):
            den = la * lb
            if j not in marked:
                new.append(raw(u, v, den) if u or v else ZERO)
                continue
            nums = {0: (u, v)} if u or v else {}
            for e, (u, v) in accs.get(j, {}).items():
                if u or v:
                    nums[e] = u, v
            guard_exponents(names, nums)
            new.append(lane_poly(names, den, nums))
        out.append(new)
    return out


def _lane(cs, charts):
    """(L, items): the nonzero entries of a row or column on one integer lane.

    cs holds GaussRats and Polys (ints and Fractions read as GaussRats), and
    L is the lcm of their denominators, one per Poly (`poly_lane`).  items
    lists (k, a, b, terms) for each nonzero cs[k]: a + bi is L times its
    constant term, and terms is None for a GaussRat and for a Poly lists
    (packed exponent, c, d) with c + di L times each other term.  The
    variables of each nonzero Poly are added to the set charts.
    """
    if all_gauss(cs):
        lc = lcm(*[c.q for c in cs])
        if lc == 1:
            return 1, [(k, c.a, c.b, None) for k, c in enumerate(cs) if c.a or c.b]
        return lc, [
            (k, c.a * (s := lc // c.q), c.b * s, None)
            for k, c in enumerate(cs)
            if c.a or c.b
        ]
    parts, qs = [], []
    for k, x in enumerate(cs):
        if type(x) is Poly:
            if x:
                charts.add(x.vars)
                q, nums = poly_lane(x)
                qs.append(q)
                parts.append((k, x.vars, nums))
        else:
            if type(x) is not GaussRat:
                x = as_gauss(x)
            if x.a or x.b:
                qs.append(x.q)
                parts.append((k, None, x))
    lc = lcm(*qs)
    items = []
    for (k, names, x), q in zip(parts, qs):
        s = lc // q
        if names is None:
            items.append((k, x.a * s, x.b * s, None))
            continue
        a, b = x.get(0, (0, 0))
        rest = [(e, c * s, d * s) for e, (c, d) in x.items() if e]
        items.append((k, a * s, b * s, rest))
    return lc, items


def _add_scaled(accs, j, terms, c, d):
    """Add the lane terms (exponent, r, s), each times c + di, to accs[j].

    accs[j] maps exponents to integer pairs [u, v] = u + vi; the exponents of
    terms are distinct.
    """
    acc = accs.get(j)
    if acc is None:
        accs[j] = {e: [r * c - s * d, r * d + s * c] for e, r, s in terms}
        return
    for e, r, s in terms:
        u, v = r * c - s * d, r * d + s * c
        uv = acc.get(e)
        if uv is None:
            acc[e] = [u, v]
        else:
            uv[0] += u
            uv[1] += v


def from_blocks(a, b, c, d):
    """The block matrix [[a, b], [c, d]]: on T + T*, 2n x 2n from n x n blocks."""
    return [list(ra) + list(rb) for ra, rb in zip(a, b)] + [
        list(rc) + list(rd) for rc, rd in zip(c, d)
    ]


def blocks(mat):
    """The four n x n blocks (a, b, c, d) of a 2n x 2n matrix [[a, b], [c, d]]."""
    n = len(mat) // 2
    top, bottom = mat[:n], mat[n:]
    return (
        [list(r[:n]) for r in top],
        [list(r[n:]) for r in top],
        [list(r[:n]) for r in bottom],
        [list(r[n:]) for r in bottom],
    )


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def is_zero_matrix(a) -> bool:
    return all(not x for row in a for x in row)


def is_antisymmetric(a) -> bool:
    n = len(a)
    return all(a[i][j] == -a[j][i] for i in range(n) for j in range(i, n))


# ---------------------------------------------------------------------------
# field operations (GaussRat entries only)
# ---------------------------------------------------------------------------

def _row(entries):
    """Gaussian-integer row {column: (a, b)} spanning the same line.

    entries are (column, scalar) pairs; the nonzero scalars are scaled by the
    lcm of their denominators, so each becomes a + bi with a, b integers.
    """
    js, gs = [], []
    for j, x in entries:
        g = as_gauss(x)
        if g:
            js.append(j)
            gs.append(g)
    return dict(zip(js, lane(gs)[1]))


def _entries(m, ncols=None):
    """The (column, scalar) pairs of each row of m, and the column count.

    m is a list of dense rows, or, when ncols is given, an iterable of dicts
    {column: scalar} over ncols columns.  Rows are read as they are consumed.
    """
    if ncols is None:
        return (enumerate(row) for row in m), len(m[0]) if m else 0
    return (row.items() for row in m), ncols


def _rows(m, ncols=None):
    """Integer sparse rows of m (see `_row`), and the column count."""
    entries, ncols = _entries(m, ncols)
    return map(_row, entries), ncols


def _eliminate(rows, rank=None):
    """Fraction-free Gauss-Jordan elimination over integer sparse rows.

    rows are {column: (a, b)} maps of nonzero gaussian integers a + bi, each
    standing for the line it spans; they are consumed.  Given their rank,
    known by proof, it returns at that many pivots and reads no further row:
    the rows left lie in the span of the pivot rows, whose reduced form is
    unique.  Returns {pivot column: (p, tail)}: the reduced row echelon
    form, pivot row by pivot row, where the row is (p at the pivot column +
    tail) / p, p is a positive integer and the tail holds the other nonzero
    entries.

    Rows are added one at a time to the reduced form of the rows before
    them.  An added row r is cleared at the pivot columns it has entries in
    by r <- L r - sum (L / p) r[c] tail_c, with L the lcm of those pivots'
    p, so no division happens.  If anything is left, its leading column
    becomes a new pivot: the row is multiplied by the conjugate of its
    leading entry, which makes that entry a positive integer, and the pivot
    is cleared from the pivot rows that have an entry there by the same
    integer step.  A pivot row is divided by the gcd of its integers each
    time it is made or changed, so it is primitive; its p is then the lcm
    of the denominators of the reduced row, and entries do not grow with
    the number of rows.  The reduced row echelon form is unique, so the
    result does not depend on the order of the rows.
    """
    pivots = {}
    for r in rows:
        hits = [(c, *pivots[c]) for c in r if c in pivots]
        if hits:
            r = _reduce(r, hits)
        if not r:
            continue
        c = min(r)
        a, b = r.pop(c)
        if b:
            r = {j: (x * a + y * b, y * a - x * b) for j, (x, y) in r.items()}
        elif a < 0:
            r = {j: (-x, -y) for j, (x, y) in r.items()}
        p, r = _primitive(a * a + b * b if b else abs(a), r)
        for d, (q, t) in pivots.items():
            if c in t:
                pivots[d] = _primitive(p * q, _reduce(t, [(c, p, r)]))
        pivots[c] = p, r
        if len(pivots) == rank:
            break
    return pivots


def _reduce(r, hits):
    """L r - sum of (L / p) r[c] tail over the pivot rows (c, p, tail) in hits.

    L is the lcm of their p, so the result is an integer row with no entry
    at their pivot columns.
    """
    lc = lcm(*(p for _, p, _ in hits))
    drop = {c for c, _, _ in hits}
    out = {j: (lc * x, lc * y) for j, (x, y) in r.items() if j not in drop}
    for c, p, t in hits:
        k = lc // p
        x, y = r[c]
        _addmul(out, (-k * x, -k * y), t)
    return out


def _addmul(out, f, t):
    """out += f t on integer sparse rows, dropping entries that cancel."""
    fa, fb = f
    for j, (x, y) in t.items():
        u, v = fa * x - fb * y, fa * y + fb * x
        cur = out.get(j)
        if cur is not None:
            u += cur[0]
            v += cur[1]
            if not (u or v):
                del out[j]
                continue
        out[j] = (u, v)


def _primitive(p, t):
    """(p, t) divided by the gcd of p and every integer in t."""
    g = gcd(p, *(z for xy in t.values() for z in xy))
    if g > 1:
        p //= g
        t = {j: (x // g, y // g) for j, (x, y) in t.items()}
    return p, t


def _reduced(rows):
    """{pivot column: tail}: the reduced rows, tails as GaussRat entries."""
    return {
        c: {j: GaussRat._raw(x, y, p) for j, (x, y) in t.items()}
        for c, (p, t) in _eliminate(rows).items()
    }


def rref(m):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    red, piv = integer_rref(*_rows(m))
    red += [[ZERO] * len(m[0]) for _ in range(len(m) - len(piv))]
    return red, piv


def integer_rref(rows, ncols):
    """`rref` of gaussian-integer rows {column: (a, b)} over ncols columns.

    Only the nonzero rows of the reduced form are returned, dense, with
    their pivot columns.
    """
    tails = _reduced(rows)
    piv = sorted(tails)
    red = []
    for c in piv:
        row = [ZERO] * ncols
        row[c] = ONE
        for j, x in tails[c].items():
            row[j] = x
        red.append(row)
    return red, piv


def rank(m) -> int:
    return len(_eliminate(_rows(m)[0]))


def kernel(m, ncols=None, cap=None, rank=None):
    """Basis of the right kernel of m, as a list of vectors.

    m is dense, or an iterable of dict rows over ncols columns.  There is one
    vector per non-pivot column f, with a 1 at f and 0 at the other
    non-pivot columns.  With a cap, a basis of more than cap entries
    (nullity x ncols) raises CapacityError once the elimination gives the
    nullity, before any vector is built.  A rank known by proof stops the
    elimination at that many pivots (`_eliminate`), with the same basis.
    """
    return integer_kernel(*_rows(m, ncols), cap, rank)


def integer_kernel(rows, ncols, cap=None, rank=None):
    """`kernel` of gaussian-integer rows {column: (a, b)} over ncols columns.

    `isotropics.null_space` passes m rows for a pure spinor and
    `branes.brane_check` the 2m rows of (J tau - i tau)^T over m columns.
    """
    tails = _eliminate(rows, rank)
    nullity = ncols - len(tails)
    if cap is not None and nullity * ncols > cap:
        raise CapacityError(
            f"nullity {nullity} over {ncols} unknowns, {nullity * ncols} basis entries, "
            f"above the cap {cap}"
        )
    basis = {f: [ZERO] * ncols for f in range(ncols) if f not in tails}
    for f, v in basis.items():
        v[f] = ONE
    raw = GaussRat._raw
    for c, (p, tail) in tails.items():
        for f, (x, y) in tail.items():
            basis[f][c] = raw(-x, -y, p)
    return list(basis.values())


def solve(m, b, ncols=None):
    """One exact solution of m x = b, or None if inconsistent.

    m is dense, or a list of dict rows over ncols columns.  The solution
    sets every free variable to 0.
    """
    entries, ncols = _entries(m, ncols)
    b = list(b)
    rows = (
        _row(chain(e, [(ncols, b[i])] if i < len(b) else []))
        for i, e in enumerate(entries)
    )
    return integer_solve(rows, ncols)


def integer_solve(rows, ncols):
    """`solve` of gaussian-integer rows {column: (a, b)} over ncols unknowns.

    Each row is augmented: its entry at column ncols, if any, is the right
    hand side.  None when that column becomes a pivot; else x_c = (that
    pivot row's right-hand entry) / p at each pivot c, one `GaussRat._raw`
    each, and 0 at every free column.
    """
    pivots = _eliminate(rows)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    raw = GaussRat._raw
    for c, (p, tail) in pivots.items():
        t = tail.get(ncols)
        if t is not None:
            x[c] = raw(*t, p)
    return x


def inverse(m):
    n = len(m)
    rows = (_row(chain(enumerate(row), [(n + i, ONE)])) for i, row in enumerate(m))
    tails = _reduced(rows)
    if sorted(tails) != list(range(n)):
        raise ValueError("matrix is singular")
    out = []
    for i in range(n):
        row = [ZERO] * n
        for j, x in tails[i].items():
            row[j - n] = x
        out.append(row)
    return out


def det(m) -> GaussRat:
    a = [[as_gauss(x) for x in row] for row in m]
    n = len(a)
    sign = ONE
    acc = ONE
    for c in range(n):
        pr = None
        for r in range(c, n):
            if a[r][c]:
                pr = r
                break
        if pr is None:
            return ZERO
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        acc = acc * a[c][c]
        inv = ONE / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return sign * acc


def row_space_basis(rows):
    """Pivot-row basis for the span of the given vectors."""
    red, piv = rref(rows)
    return [red[i] for i in range(len(piv))]


def span_contains(rows, v) -> bool:
    if not rows:
        return all(not x for x in v)
    return rank(rows) == rank(rows + [v])


def span_equal(rows_a, rows_b) -> bool:
    ra = rank(rows_a) if rows_a else 0
    rb = rank(rows_b) if rows_b else 0
    if ra != rb:
        return False
    return rank(list(rows_a) + list(rows_b)) == ra


def eval_matrix(m, point: dict):
    """Evaluate a polynomial matrix at a chart point, yielding GaussRat entries.

    Poly entries over one chart share their coordinates and the values of
    their monomials (`Poly._eval_at`), so each monomial is computed once per
    matrix.
    """
    charts = {}
    out = []
    for row in m:
        new = []
        for x in row:
            if type(x) is Poly:
                vals, monos = charts.get(x.vars) or charts.setdefault(
                    x.vars, (x._values(point), {})
                )
                new.append(x._eval_at(vals, monos))
            else:
                new.append(as_gauss(x))
        out.append(new)
    return out
