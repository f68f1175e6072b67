"""Lie bialgebroid pairs presented by transverse frames, d_L, and Maurer-Cartan.

A pair consists of frames for two pointwise-transverse maximal isotropics L
and R on a chart; the natural pairing identifies R with L*.  Multisections of
L* are stored by their values on L-frame tuples (components over index masks).

The Maurer-Cartan residual is the involutivity tensor of the deformed graph
(1 + eps)L itself: it vanishes iff d_L eps + 1/2 [eps, eps] = 0, whose linear
part in eps is the Cartan differential d_L eps.
"""

from __future__ import annotations

from .record import Record
from .scalars import Poly, as_gauss
from .clifford import GenVector
from .charts import Chart
from .fields import ClosedThreeForm, courant_bracket
from . import linalg


def _mask_indices(mask: int):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class LiePair(Record, frozen=True):
    """Transverse frames for L and its complement R = L*, with a twist."""

    chart: Chart
    frame_l: tuple
    frame_r: tuple
    h: ClosedThreeForm | None = None

    def __post_init__(self):
        m = self.chart.dim
        if len(self.frame_l) != m or len(self.frame_r) != m:
            raise ValueError(f"each frame needs {m} sections")
        for name, frame in (("L", self.frame_l), ("R", self.frame_r)):
            for i, u in enumerate(frame):
                for j in range(i, m):
                    if u.pair(frame[j]):
                        raise ValueError(f"frame {name} is not isotropic at ({i},{j})")
        gram = self.pairing()
        consts = []
        for row in gram:
            crow = []
            for x in row:
                if isinstance(x, Poly):
                    if not x.is_const:
                        raise ValueError(
                            "frame pairing must be constant; renormalize the frames"
                        )
                    crow.append(x.const_value())
                else:
                    crow.append(as_gauss(x))
            consts.append(crow)
        try:
            gram_inv = linalg.inverse(consts)
        except ValueError:
            raise ValueError("frames are not transverse") from None
        object.__setattr__(self, "_gram", consts)
        object.__setattr__(self, "_gram_inv", gram_inv)

    def pairing(self):
        return [[u.pair(a) for a in self.frame_r] for u in self.frame_l]

    # -- projections --------------------------------------------------------
    def l_components(self, u: GenVector):
        """Coefficients c of the L-part: <u, r_j> = sum_i c_i G_ij, so c = G^-T <u, r>."""
        return _combine(linalg.transpose(self._gram_inv), [u.pair(a) for a in self.frame_r])

    def r_components(self, u: GenVector):
        """Coefficients d of the R-part: <u, l_i> = sum_j G_ij d_j, so d = G^-1 <u, l>."""
        return _combine(self._gram_inv, [u.pair(l) for l in self.frame_l])

    # -- Cartan differential ---------------------------------------------------
    def d_l(self, mu: dict, k: int) -> dict:
        """Cartan differential of a Lambda^k L* multisection, as (k+1)-components."""
        chart = self.chart
        m = chart.dim
        secs = self.frame_l
        out = {}
        for mask in range(1 << m):
            if mask.bit_count() != k + 1:
                continue
            idx = _mask_indices(mask)
            acc = chart.zero()
            for pos, i in enumerate(idx):
                rest = [t for t in idx if t != i]
                val = _component(mu, rest, chart)
                xvec = secs[i].vec
                term = chart.zero()
                for t, name in enumerate(chart.names):
                    term = term + xvec[t] * val.diff(name)
                acc = acc + term if pos % 2 == 0 else acc - term
            for p1 in range(len(idx)):
                for p2 in range(p1 + 1, len(idx)):
                    i, j = idx[p1], idx[p2]
                    rest = [t for t in idx if t != i and t != j]
                    br = courant_bracket(chart, secs[i], secs[j], self.h)
                    val = self._eval_on_mixed(mu, br, rest)
                    acc = acc - val if (p1 + p2) % 2 else acc + val
            if acc:
                out[mask] = acc
        return out

    def _eval_on_mixed(self, mu: dict, first: GenVector, rest_idx):
        """mu(first, l_{rest}) with `first` an arbitrary section."""
        chart = self.chart
        comps = self.l_components(first)
        acc = chart.zero()
        for i, c in enumerate(comps):
            if not c:
                continue
            args = [i] + list(rest_idx)
            acc = acc + c * _component(mu, args, chart)
        return acc


def _combine(mat, vals):
    """mat times vals, for constant mat and Poly or GaussRat vals."""
    out = []
    for row in mat:
        acc = None
        for g, v in zip(row, vals):
            t = v * g if isinstance(v, Poly) else g * v
            acc = t if acc is None else acc + t
        out.append(acc)
    return out


def _component(mu: dict, indices, chart: Chart) -> Poly:
    """Antisymmetric component lookup for arbitrary index order."""
    idx = list(indices)
    sign = 1
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] == idx[b]:
                return chart.zero()
            if idx[a] > idx[b]:
                idx[a], idx[b] = idx[b], idx[a]
                sign = -sign
    mask = 0
    for i in idx:
        mask |= 1 << i
    val = mu.get(mask, chart.zero())
    return val if sign > 0 else -val


# ---------------------------------------------------------------------------
# section-level bracket on R and its Lie derivative on R-multivectors
# ---------------------------------------------------------------------------

def r_section_bracket(pair: LiePair, a_comps, b_comps):
    """Bracket of two R-sections given by frame components, as components."""
    chart = pair.chart
    m = chart.dim
    a_sec = _assemble(pair.frame_r, a_comps, chart)
    b_sec = _assemble(pair.frame_r, b_comps, chart)
    br = courant_bracket(chart, a_sec, b_sec, pair.h)
    lpart = pair.l_components(br)
    if any(lpart):
        raise ValueError("bracket left the complement frame")
    return pair.r_components(br)


def _assemble(frame, comps, chart: Chart):
    m = chart.dim
    acc = GenVector(m, [chart.zero()] * m, [chart.zero()] * m)
    for c, u in zip(comps, frame):
        if c:
            acc = acc + u.scale(c)
    return acc


def r_lie_derivative(pair: LiePair, b_comps, mu: dict, k: int) -> dict:
    """L_b mu for an R-multivector mu of degree k, over the R frame.

    Leibniz extension of the section bracket: L_b(f r_I) = (pi(b) f) r_I +
    f sum_i r_{i1} ^ .. [b, r_i] .. ^ r_{ik}.
    """
    chart = pair.chart
    m = chart.dim
    b_sec = _assemble(pair.frame_r, b_comps, chart)
    out: dict = {}

    def add(mask, val):
        if not val:
            return
        cur = out.get(mask, chart.zero()) + val
        if cur:
            out[mask] = cur
        else:
            out.pop(mask, None)

    for mask, f in mu.items():
        idx = _mask_indices(mask)
        # anchor derivative of the coefficient
        df = chart.zero()
        for t, name in enumerate(chart.names):
            df = df + b_sec.vec[t] * f.diff(name)
        add(mask, df)
        # bracket each slot
        for pos, i in enumerate(idx):
            unit = [chart.zero()] * m
            unit[i] = chart.one()
            br = r_section_bracket(pair, b_comps, unit)
            for jj, c in enumerate(br):
                if not c:
                    continue
                rest = [t for t in idx if t != i]
                new_idx = rest[:pos] + [jj] + rest[pos:]
                val = f * c
                sgn_idx = list(new_idx)
                sign = 1
                ok = True
                for a in range(len(sgn_idx)):
                    for b in range(a + 1, len(sgn_idx)):
                        if sgn_idx[a] == sgn_idx[b]:
                            ok = False
                        elif sgn_idx[a] > sgn_idx[b]:
                            sgn_idx[a], sgn_idx[b] = sgn_idx[b], sgn_idx[a]
                            sign = -sign
                if not ok:
                    continue
                new_mask = 0
                for t in sgn_idx:
                    new_mask |= 1 << t
                add(new_mask, val if sign > 0 else -val)
    return out


# ---------------------------------------------------------------------------
# Maurer-Cartan
# ---------------------------------------------------------------------------

class MCReport(Record, frozen=True):
    verdict: str
    residual: dict


def eps_sharp(pair: LiePair, eps: dict, i: int) -> GenVector:
    """The R-section eps^#(l_i) with <eps^# u, v> = eps(u, v)."""
    chart = pair.chart
    m = chart.dim
    # eps(l_i, l_j) coefficients against the dual frame of R
    vals = [_component(eps, [i, j], chart) for j in range(m)]
    ginv_t = linalg.transpose(pair._gram_inv)
    acc = GenVector(m, [chart.zero()] * m, [chart.zero()] * m)
    for k in range(m):
        c = chart.zero()
        for j in range(m):
            c = c + vals[j] * ginv_t[j][k]
        if c:
            acc = acc + pair.frame_r[k].scale(c)
    return acc


def maurer_cartan(pair: LiePair, eps: dict) -> MCReport:
    """The involutivity tensor of the deformed graph (1 + eps)L.

    The residual components are <[x + eps#x, y + eps#y]_H, z + eps#z> over
    L-frame triples i < j < k, keyed by the mask of {i, j, k}; the deformed
    graph is involutive iff they all vanish, which is the Maurer-Cartan
    equation d_L eps + 1/2 [eps, eps] = 0.
    """
    chart = pair.chart
    m = chart.dim
    secs = pair.frame_l
    for i in range(m):
        for j in range(i + 1, m):
            br = courant_bracket(chart, secs[i], secs[j], pair.h)
            for w in secs:
                if br.pair(w):
                    raise ValueError("L frame is not involutive; d_L is undefined")
    deformed = [l + eps_sharp(pair, eps, i) for i, l in enumerate(secs)]
    residual: dict = {}
    for i in range(m):
        for j in range(i + 1, m - 1):
            br = courant_bracket(chart, deformed[i], deformed[j], pair.h)
            for k in range(j + 1, m):
                val = br.pair(deformed[k])
                if val:
                    residual[(1 << i) | (1 << j) | (1 << k)] = chart.lift(val)
    verdict = "pass" if not residual else "fail"
    return MCReport(verdict=verdict, residual=residual)


def lie_algebroid_differential(pair: LiePair, mu: dict, degree: int) -> dict:
    """Cartan differential of a Lambda^k L* multisection over a frame pair."""
    return pair.d_l(mu, degree)


def eps_from_bivector(pair: LiePair, beta_mv) -> dict:
    """Lambda^2 L* components whose graph deformation is the bivector graph.

    Each L-frame covector part is contracted into beta; the pairing against
    the other frame elements gives eps(l_i, l_j).
    """
    chart = pair.chart
    m = chart.dim
    images = []
    for l in pair.frame_l:
        contr = beta_mv.contract([c for c in l.covec])
        vec = [chart.lift(contr.coeff(1 << t)) for t in range(m)]
        images.append(GenVector(m, vec, [chart.zero()] * m))
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            val = images[i].pair(pair.frame_l[j])
            if val:
                out[(1 << i) | (1 << j)] = val
    return out


def complex_pair(chart: Chart, h: ClosedThreeForm | None = None) -> LiePair:
    """The standard complex-structure bialgebroid frames on a paired chart.

    L is spanned by the del_zbar's and dz's, R by the del_z's and dzbar's.
    """
    n = chart.n_complex
    m = chart.dim
    if 2 * n != m:
        raise ValueError("chart must be fully complex-paired")
    frame_l = [chart.lift_section(chart.del_zbar(k)) for k in range(n)]
    frame_r = [chart.lift_section(chart.del_z(k)) for k in range(n)]
    for k in range(n):
        dz = chart.dz(k)
        frame_l.append(
            GenVector(
                m,
                [chart.zero()] * m,
                [chart.lift(dz.coeff(1 << i)) for i in range(m)],
            )
        )
        dzb = chart.dzbar(k)
        frame_r.append(
            GenVector(
                m,
                [chart.zero()] * m,
                [chart.lift(dzb.coeff(1 << i)) for i in range(m)],
            )
        )
    return LiePair(chart, tuple(frame_l), tuple(frame_r), h)
