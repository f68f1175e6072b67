"""Lie bialgebroid pairs presented by transverse frames, d_L, and Maurer-Cartan.

A pair consists of frames l_i for L and r_i for a transverse maximal
isotropic R on a chart; the natural pairing identifies R with L*.  A
multisection of L* (or of R) is a {mask: coefficient} map, read as the terms
of a `MixedForm` over the frame indices: bit i stands for the dual coframe
element theta^i (or for r_i), so the exterior algebra is that of `forms`.

With rho the anchor and [l_i, l_j]_H = sum_k c^k_ij l_k, the Cartan
differential is the Chevalley-Eilenberg operator

    d_L mu = sum_i theta^i ^ rho(l_i) mu + sum_k dtheta^k ^ i_{l_k} mu,
    dtheta^k = -sum_{i<j} c^k_ij theta^i ^ theta^j,

and the Lie derivative along an R-section b is the derivation

    L_b mu = pi(b) mu + C* mu,   row i of C = the components of [b, r_i],

with pi(b) acting on coefficients and C* = `clifford.endo_dual_action`.

The Maurer-Cartan residual is the involutivity tensor (the Courant tensor
in Lambda^3 L*, `fields.involutivity_tensor`) of the deformed graph
(1 + eps)L: it vanishes iff d_L eps + 1/2 [eps, eps] = 0, whose linear part
in eps is the Cartan differential d_L eps.
"""

from __future__ import annotations

from .record import Record
from .scalars import ZERO
from .forms import MixedForm
from .clifford import GenVector, endo_dual_action, pairing_matrix
from .charts import Chart
from .fields import ClosedThreeForm, DiracFrame, courant_bracket, involutivity_tensor
from . import linalg


class LiePair(Record, frozen=True):
    """Transverse frames for L and its complement R = L*, with a twist.

    The L frame must be a `DiracFrame` whose involutivity tensor
    (`fields.involutivity_tensor`) vanishes, so that d_L is defined.
    """

    chart: Chart
    frame_l: tuple
    frame_r: tuple
    h: ClosedThreeForm | None = None

    def __post_init__(self):
        m = self.chart.dim
        if len(self.frame_l) != m or len(self.frame_r) != m:
            raise ValueError(f"each frame needs {m} sections")
        frame_l = DiracFrame(self.chart, self.frame_l)
        coords = [u.coords() for u in self.frame_r]
        for i, row in enumerate(pairing_matrix(coords, coords)):
            for j in range(i, m):
                if row[j]:
                    raise ValueError(f"frame R is not isotropic at ({i},{j})")
        gram = self.pairing()
        if not all(x.is_const for row in gram for x in row):
            raise ValueError("frame pairing must be constant; renormalize the frames")
        consts = [[x.const_value() for x in row] for row in gram]
        try:
            gram_inv = linalg.inverse(consts)
        except ValueError:
            raise ValueError("frames are not transverse") from None
        object.__setattr__(self, "_gram", consts)
        object.__setattr__(self, "_gram_inv", gram_inv)
        if involutivity_tensor(frame_l, self.h):
            raise ValueError("L frame is not involutive; d_L is undefined")

    def pairing(self):
        return [[u.pair(a) for a in self.frame_r] for u in self.frame_l]

    # -- projections --------------------------------------------------------
    def l_components(self, u: GenVector):
        """Coefficients c of the L-part: <u, r_j> = sum_i c_i G_ij, so c = G^-T <u, r>."""
        return linalg.mat_vec(linalg.transpose(self._gram_inv), [u.pair(a) for a in self.frame_r])

    def r_components(self, u: GenVector):
        """Coefficients d of the R-part: <u, l_i> = sum_j G_ij d_j, so d = G^-1 <u, l>."""
        return linalg.mat_vec(self._gram_inv, [u.pair(l) for l in self.frame_l])

    # -- Cartan differential ---------------------------------------------------
    def d_l(self, mu: dict) -> dict:
        """Cartan differential of an L* multisection, as components.

        d_L mu = sum_i theta^i ^ rho(l_i) mu + sum_k dtheta^k ^ i_{l_k} mu, with
        dtheta^k = -sum_{i<j} c^k_ij theta^i ^ theta^j read off [l_i, l_j]_H.
        """
        chart = self.chart
        m = chart.dim
        secs = self.frame_l
        form = MixedForm(m, mu)
        dtheta = [{} for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                br = courant_bracket(chart, secs[i], secs[j], self.h)
                for k, c in enumerate(self.l_components(br)):
                    if c:
                        dtheta[k][(1 << i) | (1 << j)] = -c
        acc = MixedForm.zero(m)
        for i, l in enumerate(secs):
            acc = acc + MixedForm.blade(m, [i]).wedge(_along(chart, l.vec, form))
            if dtheta[i]:
                acc = acc + MixedForm(m, dtheta[i]).wedge(form.contract_blade(1 << i))
        return acc.terms


def _along(chart: Chart, vec, form: MixedForm) -> MixedForm:
    """Each coefficient of form differentiated along the vector field vec."""
    pairs = [(x, n) for x, n in zip(vec, chart.names) if x]
    return form.map_coeffs(lambda f: sum((x * f.diff(n) for x, n in pairs), chart.zero()))


# ---------------------------------------------------------------------------
# section-level bracket on R and its Lie derivative on R-multivectors
# ---------------------------------------------------------------------------

def r_section_bracket(pair: LiePair, a_comps, b_comps):
    """Bracket of two R-sections given by frame components, as components."""
    chart = pair.chart
    return _r_bracket(
        pair, _assemble(pair.frame_r, a_comps, chart), _assemble(pair.frame_r, b_comps, chart)
    )


def _r_bracket(pair: LiePair, a_sec: GenVector, b_sec: GenVector):
    """R-components of [a, b]_H for R-sections, which must stay in R."""
    br = courant_bracket(pair.chart, a_sec, b_sec, pair.h)
    if any(pair.l_components(br)):
        raise ValueError("bracket left the complement frame")
    return pair.r_components(br)


def _assemble(frame, comps, chart: Chart):
    m = chart.dim
    acc = GenVector(m, [chart.zero()] * m, [chart.zero()] * m)
    for c, u in zip(comps, frame):
        if c:
            acc = acc + u.scale(c)
    return acc


def r_lie_derivative(pair: LiePair, b_comps, mu: dict) -> dict:
    """L_b mu for an R-multivector mu over the R frame, as components.

    L_b is the derivation pi(b) on coefficients plus C* mu, where row i of C
    holds the components of [b, r_i]: L_b(f r_I) = (pi(b) f) r_I +
    f sum_p r_{i1} ^ .. [b, r_ip] .. ^ r_ik.
    """
    chart = pair.chart
    m = chart.dim
    form = MixedForm(m, mu)
    b_sec = _assemble(pair.frame_r, b_comps, chart)
    c = [_r_bracket(pair, b_sec, r) for r in pair.frame_r]
    return (_along(chart, b_sec.vec, form) + endo_dual_action(c, form)).terms


# ---------------------------------------------------------------------------
# Maurer-Cartan
# ---------------------------------------------------------------------------

class MCReport(Record, frozen=True):
    verdict: str
    residual: dict


def eps_sharps(pair: LiePair, eps: dict) -> list:
    """The R-sections eps^#(l_i), i = 0..m-1, with <eps^# u, v> = eps(u, v).

    The R-components d of eps^#(l_i) satisfy <eps^# l_i, l_j> = sum_k G_jk d_k
    = eps(l_i, l_j), so d = G^-1 (i_{l_i} eps); one product gives them all.
    """
    m = pair.chart.dim
    form = MixedForm(m, eps)
    contracted = [form.contract_blade(1 << i) for i in range(m)]
    vals = [[c.coeff(1 << j) for c in contracted] for j in range(m)]
    comps = linalg.transpose(linalg.mat_mul(pair._gram_inv, vals))
    return [_assemble(pair.frame_r, d, pair.chart) for d in comps]


def maurer_cartan(pair: LiePair, eps: dict) -> MCReport:
    """The involutivity tensor of the deformed graph (1 + eps)L.

    The residual holds <[x + eps#x, y + eps#y]_H, z + eps#z> over L-frame
    triples i < j < k, keyed by the mask of {i, j, k}; the deformed graph is
    involutive iff it is empty, which is the Maurer-Cartan equation
    d_L eps + 1/2 [eps, eps] = 0.

    The deformed frame is a `DiracFrame` by construction, so it is built
    unchecked: LiePair has validated that L and R are isotropic, eps^# maps
    into R with <eps^# u, v> = eps(u, v), and eps is skew, so
    <l_i + eps#l_i, l_j + eps#l_j> = eps(l_j, l_i) + eps(l_i, l_j) = 0.
    """
    deformed = tuple(l + s for l, s in zip(pair.frame_l, eps_sharps(pair, eps)))
    residual = involutivity_tensor(DiracFrame._trusted(pair.chart, deformed), pair.h)
    return MCReport(verdict="fail" if residual else "pass", residual=residual)


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
        vec = [contr.coeff(1 << t) for t in range(m)]
        images.append(GenVector(m, vec, [ZERO] * m))
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
    frame_l = [chart.del_zbar(k) for k in range(n)]
    frame_r = [chart.del_z(k) for k in range(n)]
    for k in range(n):
        dz, dzb = chart.dz(k), chart.dzbar(k)
        frame_l.append(GenVector(m, [ZERO] * m, [dz.coeff(1 << i) for i in range(m)]))
        frame_r.append(GenVector(m, [ZERO] * m, [dzb.coeff(1 << i) for i in range(m)]))
    return LiePair(chart, tuple(frame_l), tuple(frame_r), h)
