"""Independent answers for the known-answer checks.

`mukai_top` and `congruence` use plain Fractions.  The witness and
space-filling checks use sympy when it is installed; without it they are
skipped, and `STATUS` says so in the benchmark's output.
"""

from __future__ import annotations

from fractions import Fraction

try:
    import sympy
except ImportError:  # the runtime of gcgeo does not need sympy
    sympy = None

STATUS = f"sympy {sympy.__version__}" if sympy else "skipped: sympy not installed"
checks_run = [0]


def gauss_pair(x):
    return (Fraction(x.re), Fraction(x.im))


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def mukai_top(s, t):
    """Top coefficient of reversal(s) ^ t, term by term over complementary masks."""
    top = (1 << s.dim) - 1
    acc = (Fraction(0), Fraction(0))
    for mask, c in s.terms.items():
        other = top ^ mask
        d = t.terms.get(other)
        if d is None:
            continue
        k = bin(mask).count("1")
        swaps = sum(1 for i in range(s.dim) if mask >> i & 1
                    for j in range(i) if other >> j & 1)
        sign = -1 if (k * (k - 1) // 2 + swaps) % 2 else 1
        p = _cmul(gauss_pair(c), gauss_pair(d))
        acc = (acc[0] + sign * p[0], acc[1] + sign * p[1])
    return acc


def congruence(g, mat):
    """g^T mat g for square Fraction matrices."""
    n = len(g)
    mg = [[sum(mat[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(g[k][i] * mg[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _sym(x):
    """GaussRat or constant to a sympy number."""
    re, im = gauss_pair(x)
    return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
        im.numerator, im.denominator)


def _expr(p, symbols):
    """Poly over names -> sympy expression."""
    acc = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = _sym(c)
        for s, e in zip(symbols, exps):
            term *= s ** e
        acc += term
    return acc


def _below(mask, i):
    return -1 if bin(mask & ((1 << i) - 1)).count("1") % 2 else 1


def witness_holds(phi, w, point):
    """d phi = (X + xi) . phi at one point, with sympy doing the calculus."""
    if sympy is None:
        return True
    checks_run[0] += 1
    names = next(iter(phi.terms.values())).vars
    symbols = sympy.symbols(names)
    at = {s: _sym(point[n]) for s, n in zip(symbols, names)}
    m = phi.dim
    coeff = {mask: _expr(c, symbols) for mask, c in phi.terms.items()}
    lhs, rhs = {}, {}

    def add(out, mask, v):
        out[mask] = out.get(mask, 0) + v

    for mask, c in coeff.items():
        c_at = c.subs(at)
        for i in range(m):
            bit = 1 << i
            if not mask & bit:
                add(lhs, mask | bit, _below(mask, i) * sympy.diff(c, symbols[i]).subs(at))
                add(rhs, mask | bit, _below(mask, i) * _expr(w.covec[i], symbols).subs(at) * c_at)
            else:
                add(rhs, mask ^ bit, _below(mask, i) * _expr(w.vec[i], symbols).subs(at) * c_at)
    masks = set(lhs) | set(rhs)
    return all(sympy.expand(lhs.get(k, 0) - rhs.get(k, 0)) == 0 for k in masks)


def space_filling_j_matches(w, f, got):
    """brane_check's -omega^-1 F (through adjugate_inverse) against sympy's inverse."""
    if sympy is None:
        return True
    checks_run[0] += 1
    if got is None:
        return False

    def mat(rows):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])

    want = -(mat(w).inv() * mat(f))
    have = sympy.Matrix([[_sym(x.const_value()) for x in row] for row in got])
    return want == have
