"""The energy landscape of -Delta u + a u + (log|.| * u^2) u = 0.

Phi(u) = 1/2 q_a(u) + 1/4 V0(u) with q_a(u) = |grad u|_2^2 + int a u^2 and
V0(u) = B0(u^2, u^2). The Nehari residual is J(u) = q_a(u) + V0(u); on the
manifold {J = 0} the energy reduces to Phi = q_a/4 = -V0/4. States with
q_a * V0 < 0 (the set O) project onto the manifold along their ray by
t_u = sqrt(-q_a/V0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideScalingRegionError
from .field import (
    Field,
    Grid,
    lp_norm,
    mollifier,
    neg_laplacian,
    same_grid,
)
from .logkernel import KernelTable, log_potential, padded_convolve

NEHARI_REL_TOL = 1e-10  # |J| <= tol * max(|q_a|, |V0|, 1) counts as on-manifold
NZERO_FACTOR = 1e-8  # |V0| <= factor * |u|_2^4 counts as degenerate (N_0)


@dataclass(frozen=True)
class Potential:
    a: Field
    sup_norm: float
    ess_inf: float


def make_potential(a: Field) -> Potential:
    vals = a.values
    return Potential(
        a=a,
        sup_norm=float(np.max(np.abs(vals))),
        ess_inf=float(np.min(vals)),
    )


def const_potential(grid: Grid, value: float = 1.0) -> Potential:
    return make_potential(Field(grid, np.full((grid.n, grid.n), float(value))))


def cos2d_potential(grid: Grid, base: float, amp: float, k1: float, k2: float) -> Potential:
    vals = base + amp * np.cos(2.0 * np.pi * k1 * grid.x1) * np.cos(2.0 * np.pi * k2 * grid.x2)
    return make_potential(Field(grid, vals))


def radial_well_potential(grid: Grid, depth: float, radius: float) -> Potential:
    """a = 1 everywhere except a smooth well of the given depth inside |x| < radius."""
    return make_potential(Field(grid, 1.0 - mollifier((grid.r / radius) ** 2, depth)))


@dataclass(frozen=True)
class EnergyBreakdown:
    q_a: float
    v0: float
    phi: float
    nehari_j: float


@dataclass(frozen=True)
class NehariClass:
    label: str  # Nminus | Nplus | Nzero | OffNehari
    violation: float  # |J| / max(|q_a|, |V0|, 1)


def q_a_bilinear(u: Field, v: Field, pot: Potential) -> float:
    """h^2 sum (Du . Dv + a u v); the quadratic part of the energy.

    Computed as h^2 <u, -Delta_h v + a v>, equal by exact summation by parts.
    """
    grid = same_grid(u, v)
    same_grid(u, pot.a)
    av = neg_laplacian(v.values, grid.h) + pot.a.values * v.values
    return float(grid.h * grid.h * np.vdot(u.values, av))


def nehari_terms(u: Field, pot: Potential, table: KernelTable):
    """(q_a, V0, w0 = log * u^2): the terms of Phi and J from one k0 convolution."""
    grid = same_grid(u, pot.a)
    u_sq = Field(grid, u.values * u.values)
    w0 = log_potential(u_sq, table)
    v0 = float(grid.h * grid.h * np.sum(u_sq.values * w0.values))
    return q_a_bilinear(u, u, pot), v0, w0


def energy(u: Field, pot: Potential, table: KernelTable) -> EnergyBreakdown:
    """Phi and J from nehari_terms: one k0 convolution."""
    qa, v0, _ = nehari_terms(u, pot, table)
    return EnergyBreakdown(q_a=qa, v0=v0, phi=0.5 * qa + 0.25 * v0, nehari_j=qa + v0)


def phi_prime(u: Field, v: Field, pot: Potential, table: KernelTable) -> float:
    """Directional derivative Phi'(u)v = q_a(u,v) + B0(u^2, u v)."""
    grid = same_grid(u, v)
    w0 = log_potential(Field(grid, u.values * u.values), table)
    nonlocal_term = float(grid.h * grid.h * np.sum(w0.values * u.values * v.values))
    return q_a_bilinear(u, v, pot) + nonlocal_term


def residual_field(u: Field, pot: Potential, table: KernelTable) -> Field:
    """Strong-form residual r = -Delta u + a u + (log * u^2) u.

    Adjoint-consistent with grad_norm_sq: h^2 sum r v = phi_prime(u, v) exactly.
    """
    grid = same_grid(u, pot.a)
    w0 = log_potential(Field(grid, u.values * u.values), table)
    vals = neg_laplacian(u.values, grid.h) + (pot.a.values + w0.values) * u.values
    return Field(grid, vals)


def hessian_product(
    u: Field,
    v: Field,
    pot: Potential,
    table: KernelTable,
    w0: Field | None = None,
    uv: np.ndarray | None = None,
) -> Field:
    """Second variation Phi''(u)v = -Delta v + (a + w0) v + 2u (log * (u v)).

    w0 = log * u^2 and the samples uv of log * (u v) are computed when not
    given, so a caller that holds w0 pays one k0 convolution per product,
    and one that forms log * (u v) itself, to keep it, pays none.
    Symmetric: h^2 <w, Phi''(u)v> = h^2 <v, Phi''(u)w>, and
    Phi''(u)u = r + 2 w0 u with r = residual_field(u).
    """
    grid = same_grid(u, v)
    same_grid(u, pot.a)
    if w0 is None:
        w0 = log_potential(Field(grid, u.values * u.values), table)
    if uv is None:
        uv = padded_convolve(grid, u.values * v.values, table.k0_hat)
    vals = neg_laplacian(v.values, grid.h) + (pot.a.values + w0.values) * v.values
    vals += 2.0 * u.values * uv
    return Field(grid, vals)


def fiber(t: float, cached: EnergyBreakdown) -> float:
    """Energy along the ray: f_u(t) = t^2/2 q_a + t^4/4 V0, no convolutions."""
    t2 = t * t
    return 0.5 * t2 * cached.q_a + 0.25 * t2 * t2 * cached.v0


def in_nzero(v0: float, l2_sq: float) -> bool:
    """|V0| <= NZERO_FACTOR |u|_2^4: no transverse Nehari direction (the set N_0)."""
    return abs(v0) <= NZERO_FACTOR * l2_sq * l2_sq


def classify(cached: EnergyBreakdown, l2_sq: float) -> NehariClass:
    violation = abs(cached.nehari_j) / max(abs(cached.q_a), abs(cached.v0), 1.0)
    if violation > NEHARI_REL_TOL:
        return NehariClass("OffNehari", violation)
    if in_nzero(cached.v0, l2_sq):
        return NehariClass("Nzero", violation)
    return NehariClass("Nminus" if cached.v0 < 0 else "Nplus", violation)


def nehari_scale(q_a: float, v0: float) -> float:
    """t_u = sqrt(-q_a/V0), the ray factor onto {J = 0}; requires q_a * V0 < 0."""
    if not (q_a * v0 < 0):
        raise OutsideScalingRegionError(
            "outside O: q_a=%.6g, V0=%.6g have q_a*V0 >= 0; dilate along T_t (t < 0) to enter O"
            % (q_a, v0)
        )
    return float(np.sqrt(-q_a / v0))


def nehari_project(u: Field, cached: EnergyBreakdown) -> Field:
    """sigma(u) = t_u u with t_u = nehari_scale(q_a, V0)."""
    return Field(u.grid, nehari_scale(cached.q_a, cached.v0) * u.values)


def cerami_weight(u: Field, grad_norm_u: float) -> float:
    """||grad_u Phi||_u (1 + |u|_2): the computable stopping functional."""
    return grad_norm_u * (1.0 + lp_norm(u, 2))
