"""Group actions (g *_zeta u)(x) = zeta(g) u(g^-1 x) on grid fields.

Admissible symmetry classes: rotation groups generated by a turn of pi/m,
m in {1, 2}, with an optional alternating sign character (nontrivial zeta
forces sign-changing invariant functions), rank-2 translation lattices and
glide reflections. These are the point rotations a Z^2-invariant potential
can have. Lattice and glide shifts are snapped to integer cell multiples.

A solve imposes only the finite point part of an action (by symmetric
criticality that is all it needs), and `point_images` is its one
representation: the quarter turns and the x2-reflection are exact index
maps of the cell-centred box onto itself. `project_invariant` averages
over those images and the invariance defect compares a field with its
first nontrivial one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Tuple

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
    """vec in whole cells; ValueError unless it is finite and shorter than n cells per axis."""
    vec = np.asarray(vec, dtype=float)
    steps = vec / grid.h
    if not np.all(np.isfinite(steps)):
        raise ValueError("%s %s is not finite" % (what, vec.tolist()))
    cells = np.rint(steps)
    if np.any(np.abs(cells) >= grid.n):
        raise ValueError("%s %s spans n = %d cells or more" % (what, vec.tolist(), grid.n))
    cells = cells.astype(int)
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


def point_images(vals: np.ndarray, action: GroupAction) -> List[np.ndarray]:
    """The images zeta(g) u(g^-1 x) of the samples vals over the action's
    finite point group, identity first.

    A rotation group gives its 2m turns by j pi/m. A quarter turn is
    u(R_{-pi/2} x) = u(x2, -x1): on the cell-centred axis, -x1 is index
    n-1-i, so it is vals[:, ::-1].T; under zeta, turn j carries (-1)^j. A
    glide gives the identity and its point part, the x2-reflection
    u(x1, -x2), with its sign. The trivial and lattice actions impose
    nothing pointwise and give the identity alone.
    """
    zeta = action.zeta_nontrivial
    if action.kind == KIND_ROTATION:
        images, turned = [vals], vals
        for j in range(1, 2 * action.m):
            for _ in range(2 // action.m):
                turned = turned[:, ::-1].T
            images.append(-turned if zeta and j % 2 else turned)
        return images
    if action.kind == KIND_GLIDE:
        return [vals, -vals[:, ::-1] if zeta else vals[:, ::-1]]
    return [vals]


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
    """Average over the finite point group with its sign character; u itself
    when the group has one element."""
    images = point_images(u.values, action)
    if len(images) == 1:
        return u
    acc = np.zeros_like(u.values)
    for img in images:
        acc += img
    return Field(u.grid, acc / len(images))


@dataclass(frozen=True)
class InvarianceCertificate:
    defect: float
    sign_changing: bool


def _generator_defect(u: Field, action: GroupAction) -> float:
    """Relative L2 change of u under the point group's generator, 0 when the
    group has one element: what project_invariant imposes. A lattice or
    glide shift imposes nothing pointwise, and no L2 field is invariant
    under it."""
    l2 = lp_norm(u, 2)
    images = point_images(u.values, action)
    if l2 == 0.0 or len(images) == 1:
        return 0.0
    return float(np.sqrt(np.sum((images[1] - u.values) ** 2)) * u.grid.h) / l2


def is_invariant(u: Field, action: GroupAction) -> InvarianceCertificate:
    defect = _generator_defect(u, action)
    amax = float(np.max(np.abs(u.values)))
    sign_changing = bool(
        amax > 0
        and np.min(u.values) < -SIGN_CHANGE_REL * amax
        and np.max(u.values) > SIGN_CHANGE_REL * amax
    )
    return InvarianceCertificate(defect=defect, sign_changing=sign_changing)


def orbit_distance(u: Field, v: Field) -> float:
    """min over signs of the L2 distance after integer-cell barycenter recentering.

    Sub-cell remainders are not recentred, and they are not small: the
    L=12, n=128 ground state, Fourier-shifted by (s, 0.3 s) cells with
    s = 1/4 to 1.5, measures 5.25e-2 to 1.35e-1 of |u|_2 from itself,
    500-1350 times the dedup threshold solver.DEDUP_REL (ROADMAP item 3).
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
