"""Group actions (g *_zeta u)(x) = zeta(g) u(g^-1 x) on grid fields.

Admissible symmetry classes: rotation groups generated by a turn of pi/m,
m in {1, 2}, with an optional alternating sign character (nontrivial zeta
forces sign-changing invariant functions), rank-2 translation lattices and
glide reflections. These are the point rotations a Z^2-invariant potential
can have. Lattice and glide shifts are snapped to integer cell multiples,
and rotations are by multiples of pi/2, so every action is index-exact;
the point parts (quarter turns, the x2-reflection) map the cell-centred
box onto itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .barycenter import beta as barycenter_beta
from .errors import BarycenterUndefinedError
from .field import Field, Grid, lp_norm, same_grid, shift_cells

KIND_TRIVIAL = "trivial"
KIND_ROTATION = "rot-zeta"
KIND_LATTICE = "lattice"
KIND_GLIDE = "glide"
# a field changes sign when both its minimum and maximum pass this fraction
# of max |u|; converged positive states dip to about 1e-10 of it by rounding
SIGN_CHANGE_REL = 1e-6


@dataclass(frozen=True)
class GroupAction:
    kind: str
    m: int = 0  # rotation: generator turns by pi/m, group order 2m
    cells1: Tuple[int, int] = (0, 0)  # lattice b1 in grid cells
    cells2: Tuple[int, int] = (0, 0)  # lattice b2 in grid cells
    shift_c: int = 0  # glide shift along x1 in grid cells
    zeta_nontrivial: bool = False

    @property
    def has_projection(self) -> bool:
        """Finite invariant projection available."""
        return self.kind in (KIND_ROTATION, KIND_GLIDE)

    def describe(self) -> str:
        if self.kind == KIND_ROTATION:
            return "rot-zeta:m=%d%s" % (self.m, ",zeta" if self.zeta_nontrivial else "")
        if self.kind == KIND_LATTICE:
            return "lattice:%s;%s (cells)" % (self.cells1, self.cells2)
        if self.kind == KIND_GLIDE:
            return "glide:shift=%d cells%s" % (self.shift_c, ",zeta" if self.zeta_nontrivial else "")
        return self.kind


def trivial_action() -> GroupAction:
    return GroupAction(kind=KIND_TRIVIAL)


def rotation_zeta(m: int, zeta_nontrivial: bool = True) -> GroupAction:
    if m not in (1, 2):
        raise ValueError("rotation order m must be 1 or 2 (turns by pi or pi/2)")
    return GroupAction(kind=KIND_ROTATION, m=int(m), zeta_nontrivial=zeta_nontrivial)


def _snap(grid: Grid, vec, what: str) -> Tuple[int, int]:
    vec = np.asarray(vec, dtype=float)
    cells = np.rint(vec / grid.h).astype(int)
    moved = float(np.hypot(*(vec - cells * grid.h)))
    if moved > grid.h / 2:
        warnings.warn(
            "%s %s snapped to %s cells (moved %.3g > h/2)" % (what, vec.tolist(), cells.tolist(), moved)
        )
    return int(cells[0]), int(cells[1])


def lattice_translation(grid: Grid, b1, b2) -> GroupAction:
    c1 = _snap(grid, b1, "lattice vector b1")
    c2 = _snap(grid, b2, "lattice vector b2")
    return GroupAction(kind=KIND_LATTICE, cells1=c1, cells2=c2)


def glide_reflection(grid: Grid, shift: float, zeta_nontrivial: bool = False) -> GroupAction:
    sc = _snap(grid, (shift, 0.0), "glide shift")[0]
    return GroupAction(kind=KIND_GLIDE, shift_c=sc, zeta_nontrivial=zeta_nontrivial)


def _glide_point(vals: np.ndarray, action: GroupAction) -> np.ndarray:
    """The glide's point part: the x2-reflection u(x1, -x2) with its sign character."""
    refl = vals[:, ::-1]
    return -refl if action.zeta_nontrivial else refl


def rotate(u: Field, angle: float) -> Field:
    """Rotate CCW by a multiple of pi/2 as an exact index map.

    A quarter turn is (g*u)(x) = u(R_{-pi/2} x) = u(x2, -x1): on the
    cell-centred axis, -x1 is index n-1-i, so it is vals[:, ::-1].T.
    """
    quarter = angle / (0.5 * np.pi)
    q = int(np.rint(quarter))
    if abs(quarter - q) >= 1e-12:
        raise ValueError("rotation angle %.6g is not a multiple of pi/2" % angle)
    vals = u.values
    for _ in range(q % 4):
        vals = vals[:, ::-1].T
    return Field(u.grid, vals)


def act(element, action: GroupAction, u: Field) -> Field:
    """(g *_zeta u)(x) = zeta(g) u(g^-1 x).

    element: integer group-power index for rotation/glide, an integer pair
    (p, q) for lattice translations by p b1 + q b2.
    """
    kind = action.kind
    if kind == KIND_TRIVIAL:
        return u
    if kind == KIND_ROTATION:
        j = int(element)
        out = rotate(u, j * np.pi / action.m)
        if action.zeta_nontrivial and j % 2:
            out = Field(u.grid, -out.values)
        return out
    if kind == KIND_LATTICE:
        p, q = element
        di = p * action.cells1[0] + q * action.cells2[0]
        dj = p * action.cells1[1] + q * action.cells2[1]
        return shift_cells(u, di, dj)
    if kind == KIND_GLIDE:
        j = int(element)
        vals = _glide_point(u.values, action) if j % 2 else u.values
        return shift_cells(Field(u.grid, vals), j * action.shift_c, 0)
    raise ValueError("unknown action kind %r" % kind)


def radial_average(u: Field) -> Field:
    """Average over exact-radius classes about the origin; idempotent to fp.

    Classes are keyed by oi^2 + oj^2 of the doubled cell-centre offsets
    oi = 2i - (n-1), odd integers. Tests measure ground states, which are
    radial, against it.
    """
    oi = 2 * np.arange(u.grid.n) - (u.grid.n - 1)
    keys = (oi[:, None] ** 2 + oi[None, :] ** 2).ravel()
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=u.values.ravel())
    means = sums / counts
    return Field(u.grid, means[inverse].reshape(u.values.shape))


def project_invariant(u: Field, action: GroupAction) -> Field:
    """Average over the finite point group with its sign character."""
    kind = action.kind
    if kind == KIND_TRIVIAL:
        return u
    if kind == KIND_LATTICE:
        raise ValueError("lattice translations have no finite invariant projection")
    if kind == KIND_ROTATION:
        acc = np.zeros_like(u.values)
        for j in range(2 * action.m):
            acc += act(j, action, u).values
        return Field(u.grid, acc / (2 * action.m))
    if kind == KIND_GLIDE:
        # point part only: the reflection (with sign); the shift part is non-compact
        return Field(u.grid, 0.5 * (u.values + _glide_point(u.values, action)))
    raise ValueError("unknown action kind %r" % kind)


@dataclass(frozen=True)
class InvarianceCertificate:
    action: GroupAction
    defect: float
    sign_changing: bool


def _generator_defects(u: Field, action: GroupAction):
    l2 = lp_norm(u, 2)
    if l2 == 0.0:
        return [0.0]
    kind = action.kind

    def rel(v: Field) -> float:
        return float(np.sqrt(np.sum((v.values - u.values) ** 2)) * u.grid.h) / l2

    if kind in (KIND_TRIVIAL, KIND_LATTICE):
        # the lattice imposes no pointwise constraint (it only dedups orbits),
        # and no L2 field is invariant under its shifts
        return [0.0]
    if kind == KIND_ROTATION:
        return [rel(act(1, action, u))]
    if kind == KIND_GLIDE:
        # what project_invariant imposes: no L2 field is invariant under the shift
        return [rel(Field(u.grid, _glide_point(u.values, action)))]
    raise ValueError("unknown action kind %r" % kind)


def is_invariant(u: Field, action: GroupAction) -> InvarianceCertificate:
    defect = max(_generator_defects(u, action))
    amax = float(np.max(np.abs(u.values)))
    sign_changing = bool(
        amax > 0
        and np.min(u.values) < -SIGN_CHANGE_REL * amax
        and np.max(u.values) > SIGN_CHANGE_REL * amax
    )
    return InvarianceCertificate(action=action, defect=defect, sign_changing=sign_changing)


def orbit_distance(u: Field, v: Field) -> float:
    """min over signs of the L2 distance after integer-cell barycenter recentering.

    Sub-cell remainders are ignored (O(h) bias, far below the dedup threshold
    relative to inter-orbit distances).
    """
    same_grid(u, v)
    if lp_norm(u, 2) <= 1e-14 or lp_norm(v, 2) <= 1e-14:
        raise BarycenterUndefinedError("orbit distance undefined for zero fields")
    h = u.grid.h

    def recenter(w: Field) -> Field:
        b = barycenter_beta(w)
        return shift_cells(w, -int(np.rint(b[0] / h)), -int(np.rint(b[1] / h)))

    uc = recenter(u)
    vc = recenter(v)
    d_plus = float(np.sqrt(np.sum((uc.values - vc.values) ** 2)) * h)
    d_minus = float(np.sqrt(np.sum((uc.values + vc.values) ** 2)) * h)
    return min(d_plus, d_minus)


def check_admissible(action: GroupAction):
    """(ok, reason) per the admissible-pair classes."""
    kind = action.kind
    if kind == KIND_ROTATION:
        return True, "rotation group of order %d" % (2 * action.m)
    if kind == KIND_LATTICE:
        c1, c2 = action.cells1, action.cells2
        det = c1[0] * c2[1] - c1[1] * c2[0]
        if det == 0:
            return False, "lattice vectors are linearly dependent"
        return True, "rank-2 translation lattice"
    if kind == KIND_GLIDE:
        if action.shift_c == 0:
            return False, "zero shift reduces to a two-element reflection group"
        return True, "glide reflection (square is a pure translation)"
    if kind == KIND_TRIVIAL:
        return False, "trivial group provides no compactness; needs ess inf a > 0"
    return False, "unknown action kind %r" % kind
