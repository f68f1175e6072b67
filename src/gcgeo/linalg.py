"""Exact linear algebra over gaussian rationals, plus generic ring matrices.

Matrices are plain lists of lists.  Products, transposes and identity checks
work for any scalar ring (GaussRat or Poly) by duck typing.  A map of T + T*
is a 2n x 2n matrix in the basis (e_1..e_n, e^1..e^n); `from_blocks` and
`blocks` are the only code that assembles or splits its four n x n blocks.  When every entry
is a GaussRat, `mat_mul` and `mat_vec` run in the integer lane of `scalars`:
each row of the left factor and each column of the right one (or the vector)
is scaled to gaussian integers by the lcm of its denominators, products are
added up in plain ints (skipping zero entries), and `GaussRat._raw` runs once
per nonzero entry of the result.

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
dict rows plus a column count, which is how the polynomial-ansatz solvers
and `isotropics.null_space` pass their tall, almost empty systems.  `det`
keeps its own dense loop.  Nothing here inverts a Poly matrix: a
space-filling brane reads omega^-1 off the Poisson block of J.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .scalars import GaussRat, ONE, ZERO, all_gauss, as_gauss, lane, lane_dot


def zeros(r, c):
    return [[ZERO for _ in range(c)] for _ in range(r)]


def identity(n, one=ONE, zero=ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if all(map(all_gauss, a)) and all(map(all_gauss, b)):
        return _mat_mul_lane(a, b)
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = []
    for row in a:
        acc = [None] * cb
        for k in range(rb):
            x = row[k]
            if not x:
                continue
            brow = b[k]
            for j in range(cb):
                y = brow[j]
                if not y:
                    continue
                t = x * y
                acc[j] = t if acc[j] is None else acc[j] + t
        out.append([ZERO if v is None else v for v in acc])
    return out


def _mat_mul_lane(a, b):
    """a b for GaussRat entries: rows of a and columns of b on their own lanes.

    Row i of the product accumulates a[i][k] times the nonzero integer
    entries of row k of b in plain ints; entry (i, j) is then divided by the
    common denominators of row i of a and column j of b.
    """
    cols = [lane(col) for col in zip(*b)]
    dens = [lb for lb, _ in cols]
    brows = [
        [(j, c, d) for j, (c, d) in enumerate(r) if c or d]
        for r in zip(*[ys for _, ys in cols])
    ]
    out = []
    for row in a:
        la, xs = lane(row)
        us = [0] * len(dens)
        vs = [0] * len(dens)
        for (x, y), brow in zip(xs, brows):
            if y:
                for j, c, d in brow:
                    us[j] += x * c - y * d
                    vs[j] += x * d + y * c
            elif x:
                for j, c, d in brow:
                    us[j] += x * c
                    vs[j] += x * d
        out.append([
            GaussRat._raw(u, v, la * lb) if u or v else ZERO
            for u, v, lb in zip(us, vs, dens)
        ])
    return out


def mat_vec(a, v):
    if all_gauss(v) and all(map(all_gauss, a)):
        lv, ys = lane(v)
        out = []
        for row in a:
            la, xs = lane(row)
            u, w = lane_dot(xs, ys)
            out.append(GaussRat._raw(u, w, la * lv) if u or w else ZERO)
        return out
    out = []
    for row in a:
        s = None
        for x, y in zip(row, v):
            if not x or not y:
                continue
            t = x * y
            s = t if s is None else s + t
        out.append(ZERO if s is None else s)
    return out


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


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination over integer sparse rows.

    rows are {column: (a, b)} maps of nonzero gaussian integers a + bi, each
    standing for the line it spans; they are consumed.  Returns {pivot
    column: (p, tail)}: the reduced row echelon form, pivot row by pivot
    row, where the row is (p at the pivot column + tail) / p, p is a
    positive integer and the tail holds the other nonzero entries.

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
    rows, ncols = _rows(m)
    tails = _reduced(rows)
    piv = sorted(tails)
    red = []
    for c in piv:
        row = [ZERO] * ncols
        row[c] = ONE
        for j, x in tails[c].items():
            row[j] = x
        red.append(row)
    red += [[ZERO] * ncols for _ in range(len(m) - len(piv))]
    return red, piv


def rank(m) -> int:
    return len(_eliminate(_rows(m)[0]))


def kernel(m, ncols=None):
    """Basis of the right kernel of m, as a list of vectors.

    m is dense, or an iterable of dict rows over ncols columns.  There is one
    vector per non-pivot column f, with a 1 at f and 0 at the other
    non-pivot columns.
    """
    rows, ncols = _rows(m, ncols)
    tails = _reduced(rows)
    basis = {f: [ZERO] * ncols for f in range(ncols) if f not in tails}
    for f, v in basis.items():
        v[f] = ONE
    for c, tail in tails.items():
        for f, x in tail.items():
            basis[f][c] = -x
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
    tails = _reduced(rows)
    if ncols in tails:
        return None
    x = [ZERO] * ncols
    for c, tail in tails.items():
        x[c] = tail.get(ncols, ZERO)
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
    """Evaluate a polynomial matrix at a chart point, yielding GaussRat entries."""
    out = []
    for row in m:
        new = []
        for x in row:
            new.append(x.eval(point) if hasattr(x, "eval") else as_gauss(x))
        out.append(new)
    return out
