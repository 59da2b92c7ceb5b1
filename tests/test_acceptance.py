"""End-to-end acceptance checks, one per shipped guarantee.

Each test emits a single PASS/FAIL line (with capture suspended so the
line reaches the terminal even under default pytest capture) and then
asserts, so a failing guarantee is visible both in the log and in the
pytest summary.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from logchoquard import (
    Field,
    Grid,
    SolveConfig,
    beta,
    const_potential,
    cos2d_potential,
    descend,
    energy,
    gaussian_field,
    is_invariant,
    lattice_translation,
    lp_norm,
    make_bump_family,
    make_kernel_table,
    metric_context,
    multistart_search,
    norms,
    orbit_distance,
    phi_prime,
    radial_average,
    rotation_zeta,
    shift_cells,
    trivial_action,
)
from logchoquard import checks
from logchoquard.cli import main
from logchoquard.metric import apply_metric_operator, solve_metric_system

from conftest import confined_field


@pytest.fixture
def report(capsys):
    def _report(label: str, ok: bool, detail: str) -> None:
        line = "acceptance %-22s %s  (%s)" % (label, "PASS" if ok else "FAIL", detail)
        with capsys.disabled():
            print(line)
        assert ok, line
    return _report


def test_kernel_oracle_equivalence(report):
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for L, n in ((4.0, 16), (6.0, 32)):
        grid = Grid(L=L, n=n)
        table = make_kernel_table(grid)
        for _ in range(5):
            f = Field(grid, confined_field(grid, rng, nonneg=True, radius=0.4))
            g = Field(grid, confined_field(grid, rng, nonneg=True, radius=0.4))
            worst = max(worst, checks.oracle_defect(table, f, g))
    dt = time.perf_counter() - t0
    report(
        "kernel-oracle",
        worst <= 1e-10 and dt < 5.0,
        "max rel err %.3g over 16x16+32x32, %.2f s" % (worst, dt),
    )


def test_splitting_identity(report):
    grid = Grid(L=6.0, n=64)
    rng = np.random.default_rng(2)
    worst = 0.0
    for tau in (0.0, 0.5, 1.0, 2.0):
        table = make_kernel_table(grid, tau)
        for _ in range(3):
            f = Field(grid, confined_field(grid, rng, radius=0.4))
            g = Field(grid, confined_field(grid, rng, radius=0.4))
            worst = max(worst, checks.splitting_defect(table, f, g))
    report("splitting-identity", worst <= 1e-12, "max rel defect %.3g" % worst)


def test_v1_lower_bound(report):
    grid = Grid(L=6.0, n=64)
    rng = np.random.default_rng(3)
    worst = np.inf
    for tau in (0.5, 1.0, 2.0):
        fields = [Field(grid, confined_field(grid, rng, True, radius=0.4)) for _ in range(10)]
        v1, bound = checks.v1_bound(make_kernel_table(grid, tau), fields)
        worst = min(worst, float(np.min(v1 - bound * (1 - 1e-12))))
    report("v1-lower-bound", worst >= 0, "min margin %.3g" % worst)


def test_gradient_fd_order(report):
    grid = Grid(L=6.0, n=64)
    table = make_kernel_table(grid)
    pot = const_potential(grid)
    u = gaussian_field(grid, width=0.8)
    rng = np.random.default_rng(4)
    worst_order = np.inf
    for _ in range(5):
        v = Field(grid, confined_field(grid, rng, radius=0.4))
        errs = checks.fd_errors(u, v, pot, table, (1e-2, 1e-3))
        worst_order = min(worst_order, np.log10(errs[0] / errs[1]))
    report("gradient-fd-order", worst_order >= 1.9, "min observed order %.3f" % worst_order)


def test_riesz_definition(report):
    grid = Grid(L=6.0, n=64)
    table = make_kernel_table(grid)
    pot = const_potential(grid)
    u = gaussian_field(grid, width=0.8)
    rng = np.random.default_rng(5)
    probes = [Field(grid, confined_field(grid, rng, radius=0.4)) for _ in range(10)]
    worst = checks.riesz_defect(u, pot, table, probes, tol=1e-10)

    # dense LAPACK cross-check of the metric solve on a small grid
    g24 = Grid(L=4.0, n=24)
    u24 = gaussian_field(g24, width=0.7)
    ctx24 = metric_context(u24)
    nn = g24.n * g24.n
    dense = np.empty((nn, nn))
    basis = np.zeros((g24.n, g24.n))
    for idx in range(nn):
        basis.flat[idx] = 1.0
        dense[:, idx] = apply_metric_operator(ctx24, basis).ravel()
        basis.flat[idx] = 0.0
    rhs24 = confined_field(g24, rng, radius=0.4)
    x_dense = np.linalg.solve(dense, rhs24.ravel()).reshape(g24.n, g24.n)
    x_cg, _ = solve_metric_system(ctx24, rhs24, tol=1e-12)
    dense_diff = float(np.max(np.abs(x_cg - x_dense)))
    report(
        "riesz-identity",
        worst <= 1e-8 and dense_diff <= 1e-8,
        "max rel defect %.3g, dense diff %.3g" % (worst, dense_diff),
    )


def test_barycenter_equivariance(report):
    grid = Grid(L=6.0, n=64)
    u = gaussian_field(grid, width=0.6, center=(0.4, -0.2))
    cells = ((3, -2), (0, 4), (-5, 1))
    shift, (sign, near), absolute = checks.barycenter_defects(u, cells, (-1.0, 3.0))
    exact = max(sign, absolute)
    origin_err = float(np.hypot(*beta(gaussian_field(grid, width=0.8))))
    ok = shift <= 1e-12 and origin_err <= grid.h / 2 and exact == 0.0 and near <= 1e-12
    report(
        "barycenter",
        ok,
        "shift %.3g, origin %.3g, sign/abs exact %.3g, t=3 %.3g" % (shift, origin_err, exact, near),
    )


def test_metric_shift_invariance_and_continuity(report):
    grid = Grid(L=6.0, n=64)
    rng = np.random.default_rng(6)

    def masked(nonneg=False):
        vals = rng.standard_normal((grid.n, grid.n))
        if nonneg:
            vals = np.abs(vals)
        vals *= grid.r < 3.0  # hard support so shifts move every nonzero node
        return Field(grid, vals)

    u = masked(nonneg=True)
    worst3 = max(checks.metric_shift_defect(u, cells, masked()) for cells in ((3, -2), (0, 4)))
    samples = [
        (rng.uniform(-1.5, 1.5, size=2), rng.uniform(-1.5, 1.5, size=2), masked(), masked())
        for _ in range(20)
    ]
    gap, bound = checks.metric_continuity(samples)
    ok4 = bool(np.all(gap <= bound * (1 + 1e-12) + 1e-14))
    worst4 = max(0.0, float(np.max(gap - bound)))
    report(
        "metric-invariance",
        worst3 <= 1e-12 and ok4,
        "shift rel %.3g, continuity excess %.3g" % (worst3, worst4),
    )


def test_scaling_laws(report):
    grid = Grid(L=12.0, n=256)
    table = make_kernel_table(grid)
    pot = const_potential(grid)
    defects = [
        checks.scaling_defects(gaussian_field(grid, width=width, amplitude=1e-8), t, pot, table)
        for t, width in ((0.25, 2.3), (-0.25, 3.0))
    ]
    worst_g, worst_v = np.max(defects, axis=0)
    report(
        "scaling-laws",
        worst_g <= 1e-4 and worst_v <= 1e-3,
        "grad rel %.3g, V0 rel %.3g" % (worst_g, worst_v),
    )


def test_nehari_projection_identities(report):
    grid = Grid(L=6.0, n=64)
    table = make_kernel_table(grid)
    pot = const_potential(grid)
    u = gaussian_field(grid, width=0.6, amplitude=1.3)
    bk = energy(u, pot, table)
    assert bk.q_a > 0 > bk.v0
    rel_j, ident, off = checks.nehari_defects(u, pot, table, 401)
    ok = rel_j <= 1e-10 and ident <= 1e-10 and off <= 1.0001
    report(
        "nehari-projection",
        ok,
        "rel J %.3g, identity %.3g, fiber argmax off %.3g cells" % (rel_j, ident, off),
    )


def test_ground_state(report):
    grid = Grid(L=12.0, n=128)
    pot = const_potential(grid)
    table = make_kernel_table(grid)
    t0 = time.perf_counter()
    res = descend(gaussian_field(grid, width=0.6), trivial_action(), pot, table, SolveConfig())
    dt = time.perf_counter() - t0

    u = res.u
    if abs(float(np.min(u.values))) > float(np.max(u.values)):
        u = Field(grid, -u.values)
    neg = float(np.min(u.values))
    pos = float(np.max(u.values))

    b = beta(u)
    cells = np.rint(b / grid.h).astype(int)
    uc = shift_cells(u, -int(cells[0]), -int(cells[1]))
    ra = radial_average(uc)
    radial_defect = float(
        np.sqrt(np.sum((uc.values - ra.values) ** 2) / np.sum(uc.values ** 2))
    )

    # independent upper bound: projected energy over a width x amplitude lattice
    oracle = np.inf
    for width in np.linspace(0.35, 1.6, 26):
        for amp in (0.5, 1.0, 2.0):
            bk = energy(gaussian_field(grid, width=width, amplitude=amp), pot, table)
            if bk.q_a > 0 > bk.v0:
                oracle = min(oracle, -bk.q_a ** 2 / (4.0 * bk.v0))

    phi = res.breakdown.phi
    ok = (
        res.converged
        and res.cerami <= 1e-6
        and dt < 60.0
        and neg >= -1e-8 * pos
        and radial_defect <= 1e-3
        and phi <= oracle
        and phi >= 0.98 * oracle
    )
    report(
        "ground-state",
        ok,
        "phi %.6f vs oracle %.6f, cerami %.2g, radial defect %.2g, %.1f s"
        % (phi, oracle, res.cerami, radial_defect, dt),
    )


def test_multiplicity_periodic_lattice(report):
    grid = Grid(L=8.0, n=128)
    pot = cos2d_potential(grid, 1.0, 0.5, 1.0, 1.0)
    table = make_kernel_table(grid)
    action = lattice_translation(grid, (1.0, 0.0), (0.0, 1.0))
    t0 = time.perf_counter()
    results = multistart_search(4, action, pot, table, SolveConfig(max_iters=400))
    dt = time.perf_counter() - t0

    conv = [r for r in results if r.converged]
    phis = [r.breakdown.phi for r in conv]
    strictly_increasing = all(p2 > p1 for p1, p2 in zip(phis, phis[1:]))

    rng = np.random.default_rng(7)
    worst_j = 0.0
    worst_probe = 0.0
    for r in conv[:3]:
        bk = r.breakdown
        worst_j = max(worst_j, abs(bk.nehari_j) / max(abs(bk.q_a), abs(bk.v0)))
        for _ in range(20):
            v = Field(grid, confined_field(grid, rng, radius=0.4))
            p = abs(phi_prime(r.u, v, pot, table)) / np.sqrt(norms(v).x_sq)
            worst_probe = max(worst_probe, p)

    ok = (
        len(conv) >= 3
        and strictly_increasing
        and worst_j <= 1e-8
        and worst_probe <= 1e-5
        and dt < 900.0
    )
    report(
        "multiplicity",
        ok,
        "%d converged orbits, phi %s, rel J %.2g, probe %.2g, %.0f s"
        % (len(conv), ["%.6f" % p for p in phis[:4]], worst_j, worst_probe, dt),
    )


def test_sign_changing_symmetric(report):
    grid = Grid(L=6.0, n=128)
    pot = const_potential(grid)
    table = make_kernel_table(grid)
    action = rotation_zeta(2)
    family = make_bump_family(0, action, pot, table, SolveConfig(seed=3))
    res = descend(family.bumps[0], action, pot, table, SolveConfig(seed=3))

    cert = is_invariant(res.u, action)
    ground = descend(
        gaussian_field(grid, width=0.6), trivial_action(), pot, table, SolveConfig()
    )
    dist = orbit_distance(res.u, ground.u)
    scale = max(lp_norm(res.u, 2), lp_norm(ground.u, 2))

    ok = (
        res.converged
        and float(np.min(res.u.values)) < 0 < float(np.max(res.u.values))
        and cert.defect <= 1e-6
        and dist > 0.1 * scale
    )
    report(
        "sign-changing",
        ok,
        "phi %.6f, range [%.3g, %.3g], defect %.2g, orbit distance %.3g"
        % (
            res.breakdown.phi,
            float(np.min(res.u.values)),
            float(np.max(res.u.values)),
            cert.defect,
            dist,
        ),
    )


def test_check_battery_and_corruption_detection(capsys, report):
    rc = main(["check"])
    captured = capsys.readouterr().out
    battery_ok = rc == 0 and "all invariant checks passed" in captured

    proc = subprocess.run(
        [sys.executable, "-m", "logchoquard", "check", "--n", "16"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "LOGCHOQUARD_CORRUPT_KERNEL": "1"},
    )
    lines = [l for l in proc.stdout.splitlines() if l.startswith("B0-splitting")]
    corrupt_detected = proc.returncode == 4 and lines and "FAIL" in lines[0]
    report(
        "check-battery",
        battery_ok and bool(corrupt_detected),
        "clean rc %d, corrupted rc %d" % (rc, proc.returncode),
    )
