"""The split-signature Clifford module structure on forms.

GenVector models an element of (V + V*) x C acting on forms by
(X + xi) . phi = i_X phi + xi ^ phi.  SoElement models an element of
so(V + V*) in the block decomposition (endomorphism A, 2-form shear B,
bivector shear beta), with its spin representation; BlockTransform models the
exponentials of single blocks, acting both orthogonally and spinorially.

All matrices in this module are maps acting on column coordinate vectors in
the basis (e_1..e_m, e^1..e^m).  Geometric 2-forms and bivectors convert to
and from shear maps via forms.two_form_from_map / map_from_two_form.
"""

from __future__ import annotations

from itertools import chain

from .scalars import ONE, ZERO, HALF, GaussRat, all_gauss, lane, lane_dot, sqrt_exact
from .forms import MixedForm, covector_form, two_form_from_map, check_dim
from . import linalg


class GenVector:
    """X + xi with scalar coefficient lists for the V and V* parts."""

    __slots__ = ("dim", "vec", "covec")

    def __init__(self, dim: int, vec, covec):
        check_dim(dim)
        vec = tuple(vec)
        covec = tuple(covec)
        if len(vec) != dim or len(covec) != dim:
            raise ValueError("component length must equal dim")
        _set_gv_dim(self, dim)
        _set_vec(self, vec)
        _set_covec(self, covec)

    def __setattr__(self, *_):
        raise AttributeError("GenVector is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return GenVector, (self.dim, self.vec, self.covec)

    @classmethod
    def basis_vector(cls, dim, i, coeff=ONE):
        return cls(dim, [coeff if j == i else ZERO for j in range(dim)], [ZERO] * dim)

    @classmethod
    def basis_covector(cls, dim, i, coeff=ONE):
        return cls(dim, [ZERO] * dim, [coeff if j == i else ZERO for j in range(dim)])

    @classmethod
    def from_coords(cls, coords):
        m = len(coords) // 2
        return cls(m, coords[:m], coords[m:])

    def coords(self):
        return list(self.vec) + list(self.covec)

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return GenVector(
            self.dim,
            [a + b for a, b in zip(self.vec, other.vec)],
            [a + b for a, b in zip(self.covec, other.covec)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GenVector(self.dim, [-a for a in self.vec], [-a for a in self.covec])

    def scale(self, c):
        return GenVector(self.dim, [c * a for a in self.vec], [c * a for a in self.covec])

    def flip(self) -> "GenVector":
        """The anti-orthogonal reversal X + xi -> X - xi."""
        return GenVector(self.dim, self.vec, [-a for a in self.covec])

    def conj(self) -> "GenVector":
        return GenVector(self.dim, [a.conj() for a in self.vec], [a.conj() for a in self.covec])

    def pair(self, other):
        """Natural pairing <X+xi, Y+eta> = (xi(Y) + eta(X)) / 2."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if all_gauss(chain(self.vec, self.covec, other.vec, other.covec)):
            ls, xs = lane(self.vec + self.covec)
            lo, ys = lane(other.covec + other.vec)
            return GaussRat._raw(*lane_dot(xs, ys), 2 * ls * lo)
        acc = None
        for a, b in zip(self.covec, other.vec):
            t = a * b
            acc = t if acc is None else acc + t
        for a, b in zip(other.covec, self.vec):
            t = a * b
            acc = acc + t
        return HALF * acc

    def act(self, phi: MixedForm) -> MixedForm:
        """Clifford action i_X phi + xi ^ phi on a form."""
        if phi.variance != "form":
            raise ValueError("the spin representation acts on forms")
        if phi.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = phi.contract(self.vec)
        if any(self.covec):
            out = out + covector_form(self.dim, self.covec).wedge(phi)
        return out

    def eval_at(self, point: dict) -> "GenVector":
        return GenVector(
            self.dim, [c.eval(point) for c in self.vec], [c.eval(point) for c in self.covec]
        )

    def is_zero(self) -> bool:
        return not (any(self.vec) or any(self.covec))

    def __eq__(self, other):
        if not isinstance(other, GenVector):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for a, b in zip(self.coords(), other.coords())
        )

    def __repr__(self):
        bits = []
        for i, c in enumerate(self.vec):
            if c:
                bits.append(f"({c!r})*e_{i+1}")
        for i, c in enumerate(self.covec):
            if c:
                bits.append(f"({c!r})*e{i+1}")
        return " + ".join(bits) if bits else "0"


_set_gv_dim, _set_vec, _set_covec = (
    GenVector.dim.__set__, GenVector.vec.__set__, GenVector.covec.__set__
)


def pairing_matrix(rows_a, rows_b):
    """[2 <a_i, b_j>] for coordinate rows (X, xi) of T + T*.

    2 <X + xi, Y + eta> = xi(Y) + eta(X) is the product of (X, xi) with the
    half-swapped row (eta, Y), so the matrix is one product of rows_a with
    the transposed half-swapped rows_b.
    """
    swapped = [[*r[len(r) // 2:], *r[:len(r) // 2]] for r in rows_b]
    return linalg.mat_mul(rows_a, linalg.transpose(swapped))


def endo_dual_action(a, phi: MixedForm) -> MixedForm:
    """A* phi = sum a[j][i] e^i ^ i_{e_j} phi, the derivation action of End(V)."""
    dim = phi.dim
    acc = MixedForm.zero(dim)
    for j in range(dim):
        contracted = phi.contract_blade(1 << j)
        if contracted:
            acc = acc + covector_form(dim, a[j]).wedge(contracted)
    return acc


class SoElement:
    """Block element of so(V + V*): endomorphism a, shear maps b_map, beta_map.

    b_map is the 2-form shear X -> i_X B and beta_map the bivector shear
    xi -> i_xi beta; both are antisymmetric matrices.
    """

    __slots__ = ("dim", "a", "b_map", "beta_map")

    def __init__(self, dim, a=None, b_map=None, beta_map=None):
        check_dim(dim)
        z = linalg.zeros(dim, dim)
        a = a if a is not None else z
        b_map = b_map if b_map is not None else z
        beta_map = beta_map if beta_map is not None else z
        for name, mat in (("b_map", b_map), ("beta_map", beta_map)):
            if not linalg.is_antisymmetric(mat):
                raise ValueError(f"{name} must be antisymmetric")
        _set_so_dim(self, dim)
        _set_so_a(self, [list(r) for r in a])
        _set_b_map(self, [list(r) for r in b_map])
        _set_beta_map(self, [list(r) for r in beta_map])

    def __setattr__(self, *_):
        raise AttributeError("SoElement is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return SoElement, (self.dim, self.a, self.b_map, self.beta_map)

    def so_matrix(self):
        """2m x 2m map [[A, beta], [B, -A^T]] on column coordinates."""
        minus_at = [[-x for x in col] for col in zip(*self.a)]
        return linalg.from_blocks(self.a, self.beta_map, self.b_map, minus_at)

    def apply(self, v: GenVector) -> GenVector:
        return GenVector.from_coords(linalg.mat_vec(self.so_matrix(), v.coords()))

    def b_form(self) -> MixedForm:
        return two_form_from_map(self.b_map, "form")

    def beta_mv(self) -> MixedForm:
        return two_form_from_map(self.beta_map, "mv")

    def spin_act(self, phi: MixedForm) -> MixedForm:
        """Infinitesimal spin action: -B^phi + i_beta phi - A*phi + (trA/2) phi."""
        acc = MixedForm.zero(self.dim)
        bf = self.b_form()
        if bf:
            acc = acc - bf.wedge(phi)
        bm = self.beta_mv()
        if bm:
            acc = acc + phi.contract_mv(bm)
        if any(any(row) for row in self.a):
            acc = acc - endo_dual_action(self.a, phi)
            tr = self.a[0][0]
            for i in range(1, self.dim):
                tr = tr + self.a[i][i]
            acc = acc + phi.scale(HALF * tr)
        return acc


_set_so_dim, _set_so_a = SoElement.dim.__set__, SoElement.a.__set__
_set_b_map, _set_beta_map = SoElement.b_map.__set__, SoElement.beta_map.__set__


def gl_pullback_inverse(g, phi: MixedForm) -> MixedForm:
    """(g*)^{-1} phi: the pullback of a form along g^{-1}."""
    dim = phi.dim
    ginv = linalg.inverse(g)
    images = [covector_form(dim, ginv[i]) for i in range(dim)]
    acc = MixedForm.zero(dim)
    for mask, c in phi.terms.items():
        blade = MixedForm.one(dim)
        for i in range(dim):
            if mask & (1 << i):
                blade = blade.wedge(images[i])
        acc = acc + blade.scale(c)
    return acc


class BlockTransform:
    """exp of a single so-block, or a GL(V) element, with both actions.

    kind 'B': payload is the antisymmetric shear map of a 2-form.
    kind 'beta': payload is the antisymmetric shear map of a bivector.
    kind 'gl': payload is an invertible matrix g itself (not its logarithm).
    """

    __slots__ = ("dim", "kind", "mat")

    def __init__(self, dim, kind, mat):
        check_dim(dim)
        if kind not in ("B", "beta", "gl"):
            raise ValueError(f"unknown transform kind {kind!r}")
        if kind in ("B", "beta") and not linalg.is_antisymmetric(mat):
            raise ValueError("shear map must be antisymmetric")
        if kind == "gl" and not linalg.det(mat):
            raise ValueError("gl transform must be invertible")
        _set_bt_dim(self, dim)
        _set_kind(self, kind)
        _set_mat(self, [list(r) for r in mat])

    def __setattr__(self, *_):
        raise AttributeError("BlockTransform is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return BlockTransform, (self.dim, self.kind, self.mat)

    @classmethod
    def from_two_form(cls, f: MixedForm):
        from .forms import map_from_two_form

        return cls(f.dim, "B", map_from_two_form(f))

    @classmethod
    def from_bivector(cls, b: MixedForm):
        from .forms import map_from_two_form

        return cls(b.dim, "beta", map_from_two_form(b))

    def orth_matrix(self):
        one, zero = linalg.identity(self.dim), linalg.zeros(self.dim, self.dim)
        if self.kind == "B":
            return linalg.from_blocks(one, zero, self.mat, one)
        if self.kind == "beta":
            return linalg.from_blocks(one, self.mat, zero, one)
        ginv_t = linalg.transpose(linalg.inverse(self.mat))
        return linalg.from_blocks(self.mat, zero, zero, ginv_t)

    def apply(self, v: GenVector) -> GenVector:
        return GenVector.from_coords(linalg.mat_vec(self.orth_matrix(), v.coords()))

    def spinor(self, phi: MixedForm) -> MixedForm:
        """Spin-lift action: e^{-B}^phi, e^{i_beta}phi, or sqrt(det g)(g*)^{-1}phi."""
        if self.kind == "B":
            return (-two_form_from_map(self.mat, "form")).exp_wedge_on(phi)
        if self.kind == "beta":
            return phi.exp_contract(two_form_from_map(self.mat, "mv"))
        root = sqrt_exact(linalg.det(self.mat))
        return gl_pullback_inverse(self.mat, phi).scale(root)

    def spinor_untwisted(self, phi: MixedForm) -> MixedForm:
        """GL action without the half-density factor."""
        if self.kind != "gl":
            raise ValueError("untwisted action only applies to gl transforms")
        return gl_pullback_inverse(self.mat, phi)


_set_bt_dim, _set_kind, _set_mat = (
    BlockTransform.dim.__set__, BlockTransform.kind.__set__, BlockTransform.mat.__set__
)
