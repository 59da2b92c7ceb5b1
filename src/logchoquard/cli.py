"""Command-line front end: config parsing, reproducible runs, invariant battery.

Configs are plain key=value text (sorted canonicalization, sha256 hash).
Every run writes a manifest.json before any other output so interrupted
runs are detectable. Exit codes: 0 ok, 2 config error, 3 non-convergence,
4 invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .barycenter import beta as barycenter_beta
from .errors import (
    DESCENT_ERRORS,
    AdmissibilityError,
    ChoquardError,
    ConfigError,
    DegenerateNehariError,
    FieldDataError,
    GridResolutionError,
    GroundStateError,
    LineSearchError,
    OutsideScalingRegionError,
    RieszSolveError,
    StartFamilyError,
)
from .field import (
    Field,
    Grid,
    gaussian_field,
    lp_norm,
    load_field,
    norms,
    save_field,
    shift_cells,
)
from .functionals import (
    Potential,
    classify,
    const_potential,
    cos2d_potential,
    energy,
    fiber,
    make_potential,
    nehari_project,
    phi_prime,
    radial_well_potential,
    scale_Tt,
)
from .logkernel import (
    KernelTable,
    b_form,
    direct_oracle,
    kernel_fft,
    make_kernel_table,
    padded_convolve,
)
from .metric import (
    inner_u,
    metric_context,
    metric_context_at,
    norm_u,
    riesz_gradient,
)
from .solver import (
    SolveConfig,
    SolveResult,
    TRACE_COLUMNS,
    descend,
    ground_state,
    make_bump_family,
    multistart_search,
)
from .symmetry import (
    GroupAction,
    check_admissible,
    glide_reflection,
    lattice_translation,
    radial_action,
    rotation_zeta,
    trivial_action,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVARIANT = 4

_DEFAULTS = {
    "box": "6.0",
    "n": "64",
    "a": "const:1",
    "symmetry": "trivial",
    "k": "2",
    "max_iters": "1200",
    "cerami_tol": "1e-6",
    "riesz_tol": "1e-10",
    "step_init": "1.0",
    "backtrack_factor": "0.5",
    "armijo_c": "1e-4",
    "tau_split": "0.0",
    "seed": "0",
}

def _parse_lines(text: str) -> dict:
    pairs = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError("unknown key %r" % key, line=lineno)
        if not value:
            raise ConfigError("empty value for %r" % key, line=lineno)
        pairs[key] = value
    return pairs


def _read_field(path: str, grid: Optional[Grid] = None) -> Field:
    """load_field with a missing, corrupt or (given grid) mismatched file as a ConfigError."""
    try:
        u = load_field(path)
    except (OSError, FieldDataError, GridResolutionError) as exc:
        raise ConfigError("cannot read field %r: %s" % (path, exc))
    if grid is not None and u.grid != grid:
        raise ConfigError(
            "field %r grid (L=%g, n=%d) does not match config grid (L=%g, n=%d)"
            % (path, u.grid.L, u.grid.n, grid.L, grid.n)
        )
    return u


def _build_potential(grid: Grid, spec: str) -> Potential:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "const":
            return const_potential(grid, float(rest))
        if kind == "cos2d":
            base, amp, k1, k2 = (float(s) for s in rest.split(","))
            return cos2d_potential(grid, base, amp, k1, k2)
        if kind == "radial-well":
            depth, radius = (float(s) for s in rest.split(","))
            return radial_well_potential(grid, depth, radius)
        if kind == "file":
            return make_potential(_read_field(rest, grid))
    except ValueError as exc:
        raise ConfigError("bad potential spec %r: %s" % (spec, exc))
    raise ConfigError("unknown potential kind %r" % kind)


def _build_action(grid: Grid, spec: str) -> GroupAction:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "trivial":
            return trivial_action()
        if kind == "radial":
            return radial_action()
        if kind == "rot-zeta":
            return rotation_zeta(int(rest), zeta_nontrivial=True)
        if kind == "rot":
            return rotation_zeta(int(rest), zeta_nontrivial=False)
        if kind == "lattice":
            part1, _, part2 = rest.partition(";")
            b1 = tuple(float(s) for s in part1.split(","))
            b2 = tuple(float(s) for s in part2.split(","))
            if len(b1) != 2 or len(b2) != 2:
                raise ValueError("need b1x,b1y;b2x,b2y")
            return lattice_translation(grid, b1, b2)
        if kind == "glide":
            return glide_reflection(grid, float(rest), zeta_nontrivial=True)
    except (ValueError, ChoquardError) as exc:
        raise ConfigError("bad symmetry spec %r: %s" % (spec, exc))
    raise ConfigError("unknown symmetry kind %r" % kind)


def parse_config(text: str):
    """Parse key=value config text -> (Grid, Potential, GroupAction, SolveConfig, extras)."""
    pairs = _parse_lines(text)
    try:
        grid = Grid(L=float(pairs["box"]), n=int(pairs["n"]))
    except (ValueError, ChoquardError) as exc:
        raise ConfigError("bad grid: %s" % exc)
    pot = _build_potential(grid, pairs["a"])
    action = _build_action(grid, pairs["symmetry"])
    try:
        cfg = SolveConfig(
            max_iters=int(pairs["max_iters"]),
            cerami_tol=float(pairs["cerami_tol"]),
            riesz_tol=float(pairs["riesz_tol"]),
            step_init=float(pairs["step_init"]),
            backtrack_factor=float(pairs["backtrack_factor"]),
            armijo_c=float(pairs["armijo_c"]),
            tau_split=float(pairs["tau_split"]),
            seed=int(pairs["seed"]),
        )
        k = int(pairs["k"])
        if k < 0:
            raise ValueError("k must be >= 0")
    except ValueError as exc:
        raise ConfigError("bad solver settings: %s" % exc)
    return grid, pot, action, cfg, {"k": k, "pairs": pairs}


def serialize_config(pairs: dict) -> str:
    """Canonical form: sorted key = value lines."""
    return "".join("%s = %s\n" % (k, pairs[k]) for k in sorted(pairs))


def config_hash(pairs: dict) -> str:
    return hashlib.sha256(serialize_config(pairs).encode("utf-8")).hexdigest()


def write_manifest(out_dir: str, command: str, pairs: dict, outputs: List[str]) -> str:
    """Write manifest.json first; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "config_hash": config_hash(pairs),
        "command": command,
        "grid": {"L": float(pairs["box"]), "n": int(pairs["n"])},
        "potential_spec": pairs["a"],
        "symmetry": pairs["symmetry"],
        "seed": int(pairs["seed"]),
        "outputs": outputs,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if os.environ.get("LOGCHOQUARD_CRASH_AFTER_MANIFEST"):
        raise SystemExit(70)  # crash hook: manifest exists, outputs do not
    return path


def write_trace(path: str, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace:
            fh.write("%d," % row[0] + ",".join("%.17g" % v for v in row[1:]) + "\n")


def _result_summary_row(idx: int, res: SolveResult) -> str:
    bk = res.breakdown
    return "%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%.17g,%d" % (
        idx,
        1 if res.converged else 0,
        bk.phi,
        bk.q_a,
        bk.v0,
        bk.nehari_j,
        res.cerami,
        res.nehari.label,
        res.certificate.defect,
        res.iters,
    )


def _load_table(grid: Grid, cfg: SolveConfig) -> KernelTable:
    table = make_kernel_table(grid, cfg.tau_split)
    if os.environ.get("LOGCHOQUARD_CORRUPT_KERNEL"):
        k1 = table.k1.copy()
        k1[0, 0] += 1e-6  # corrupt the smooth kernel's origin cell
        vars(table).update(k1=k1, k1_hat=kernel_fft(k1))  # overwrite the cached kernel
    return table


def _read_config_file(path: Optional[str]) -> str:
    if path is None:
        return ""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %r: %s" % (path, exc))


def _load_config(args):
    """Parse the config file with command-line overrides folded in, so the
    manifest hash reflects the effective configuration."""
    pairs = _parse_lines(_read_config_file(getattr(args, "config", None)))
    if getattr(args, "n", None) is not None:
        pairs["n"] = str(args.n)
    if getattr(args, "box", None) is not None:
        pairs["box"] = repr(float(args.box))
    if getattr(args, "seed", None) is not None:
        pairs["seed"] = str(args.seed)
    if getattr(args, "k", None) is not None:
        pairs["k"] = str(args.k)
    return parse_config(serialize_config(pairs))


# ---------------------------------------------------------------------------
# invariant battery


def _battery(grid: Grid, table: KernelTable, rng: np.random.Generator):
    """Yield (name, passed, detail) for the named invariant checks."""
    h = grid.h
    n = grid.n

    def rand_field(nonneg=False):
        vals = rng.standard_normal((n, n))
        if nonneg:
            vals = np.abs(vals)
        vals *= np.exp(-(grid.r ** 2))  # confine support away from the boundary
        return Field(grid, vals)

    # kernel splitting B1 - B2 = B0 across tau values
    worst = 0.0
    for tau in (0.0, 0.5, 1.0):
        tab = make_kernel_table(grid, tau) if tau != table.tau else table
        f, g = rand_field(True), rand_field(True)
        b0 = b_form(f, g, "B0", tab)
        b1 = b_form(f, g, "B1", tab)
        b2 = b_form(f, g, "B2", tab)
        worst = max(worst, abs(b1 - b2 - b0) / (1.0 + abs(b0)))
    yield "B0-splitting", worst <= 1e-12, "max rel defect %.3g" % worst

    # pointwise splitting of the supplied table (catches corrupted tables)
    pw = float(np.max(np.abs(table.k1 - table.k2 - table.k0)))
    yield "kernel-table-pointwise", pw <= 1e-12, "max |k1-k2-k0| = %.3g" % pw

    f, g = rand_field(True), rand_field(True)
    sym = abs(b_form(f, g, "B0", table) - b_form(g, f, "B0", table))
    yield "B0-symmetry", sym <= 1e-12 * (1 + abs(b_form(f, g, "B0", table))), "defect %.3g" % sym

    if n <= 32:
        exact = direct_oracle(f, g, "B0", table)
        fast = b_form(f, g, "B0", table)
        rel = abs(fast - exact) / (1.0 + abs(exact))
        yield "B0-oracle", rel <= 1e-10, "rel err %.3g" % rel

    tab1 = make_kernel_table(grid, 1.0)
    ok = True
    worst = np.inf
    for _ in range(3):
        u = rand_field(True)
        usq = Field(grid, u.values * u.values)
        v1 = b_form(usq, usq, "B1", tab1)
        bound = 1.0 * lp_norm(u, 2) ** 4
        margin = v1 - bound * (1 - 1e-12)
        worst = min(worst, margin)
        ok = ok and margin >= 0
    yield "V1-lower-bound", ok, "min margin %.3g" % worst

    # barycenter equivariance under integer shifts and scalings
    u = gaussian_field(grid, width=0.6, center=(0.4, -0.2))
    b = barycenter_beta(u)
    cells = (3, -2)
    shifted = shift_cells(u, cells[0], cells[1])
    b_sh = barycenter_beta(shifted)
    want = b + np.array([cells[0] * h, cells[1] * h])
    err = float(np.max(np.abs(b_sh - want)))
    yield "barycenter-shift", err <= 1e-12, "defect %.3g" % err

    # t = -1, 0.5 and |u| rescale every intermediate by an exact power of two
    # (bitwise identical); t = 3 perturbs the input representation itself.
    exact = max(
        float(np.max(np.abs(barycenter_beta(Field(grid, t * u.values)) - b)))
        for t in (-1.0, 0.5)
    )
    exact = max(exact, float(np.max(np.abs(barycenter_beta(Field(grid, np.abs(u.values))) - b))))
    near = float(np.max(np.abs(barycenter_beta(Field(grid, 3.0 * u.values)) - b)))
    yield "barycenter-scale", exact == 0.0 and near <= 1e-12, (
        "pow2 defect %.3g, t=3 defect %.3g" % (exact, near)
    )

    # metric M1: norm equivalence ratios stay bounded for offset centers
    v = rand_field()
    x2 = norms(v).x_sq
    ratios = []
    for kappa in (0.0, 2.0, 5.0):
        ctx = metric_context_at(grid, np.array([kappa, 0.0]))
        ratios.append(norm_u(ctx, v) ** 2 / x2)
    ok = all(0.05 < r < 20.0 for r in ratios)
    yield "metric-M1", ok, "ratio range [%.3g, %.3g]" % (min(ratios), max(ratios))

    # metric M3: exact invariance under integer shifts
    ctx0 = metric_context(u)
    w = rand_field()
    val0 = inner_u(ctx0, v, w)
    ctx1 = metric_context(shifted)
    val1 = inner_u(
        ctx1, shift_cells(v, cells[0], cells[1]), shift_cells(w, cells[0], cells[1])
    )
    rel = abs(val1 - val0) / (1.0 + abs(val0))
    yield "metric-M3", rel <= 1e-12, "rel defect %.3g" % rel

    # metric M4: continuity in the barycenter
    ok = True
    worst = 0.0
    for _ in range(5):
        c1 = rng.uniform(-1, 1, size=2)
        c2 = rng.uniform(-1, 1, size=2)
        va, wa = rand_field(), rand_field()
        d = abs(
            inner_u(metric_context_at(grid, c1), va, wa)
            - inner_u(metric_context_at(grid, c2), va, wa)
        )
        bound = float(np.hypot(*(c1 - c2))) * h * h * float(
            np.sum(np.abs(va.values * wa.values))
        )
        ok = ok and d <= bound * (1 + 1e-12) + 1e-14
        worst = max(worst, d - bound)
    yield "metric-M4", ok, "max excess %.3g" % worst

    # gradient check: finite differences of Phi against phi_prime
    pot = const_potential(grid)
    base = gaussian_field(grid, width=0.8)
    direction = rand_field()
    p = phi_prime(base, direction, pot, table)
    eps = 1e-4
    fp = (
        energy(Field(grid, base.values + eps * direction.values), pot, table).phi
        - energy(Field(grid, base.values - eps * direction.values), pot, table).phi
    ) / (2 * eps)
    rel = abs(fp - p) / (1.0 + abs(p))
    yield "gradient-fd", rel <= 1e-5, "rel err %.3g" % rel

    # Riesz defining relation
    gvec, _ = riesz_gradient(base, pot, table, tol=1e-10)
    ctx = metric_context(base)
    ok = True
    worst = 0.0
    for _ in range(3):
        probe = rand_field()
        lhs = inner_u(ctx, gvec, probe)
        rhs = phi_prime(base, probe, pot, table)
        d = abs(lhs - rhs) / (1.0 + abs(rhs))
        worst = max(worst, d)
        ok = ok and d <= 1e-8
    yield "riesz-identity", ok, "max rel defect %.3g" % worst

    # scaling laws, smoke level (the battery grid is coarse; acceptance-grade
    # checks run at higher resolution in the test suite)
    narrow = gaussian_field(grid, width=0.55)
    bk = energy(narrow, pot, table)
    scaled = scale_Tt(narrow, -0.2)
    bk_s = energy(scaled, pot, table)
    grad0 = norms(narrow).grad_sq
    grad1 = norms(scaled).grad_sq
    rel_g = abs(grad1 - np.exp(0.4) * grad0) / grad0
    l2q = lp_norm(narrow, 2) ** 4
    rel_v = abs(bk_s.v0 - bk.v0 - (-0.2) * l2q) / (1.0 + abs(bk.v0))
    yield "scaling-gradient", rel_g <= 0.1, "rel err %.3g" % rel_g
    yield "scaling-v0", rel_v <= 0.1, "rel err %.3g" % rel_v

    # Nehari identities on a Gaussian inside the scaling region O
    nstate, nbk = None, None
    for wdt in (0.6, 0.4, 0.3):
        cand = gaussian_field(grid, width=wdt)
        bkc = energy(cand, pot, table)
        if bkc.q_a * bkc.v0 < 0:
            nstate, nbk = cand, bkc
            break
    if nbk is None:
        yield "nehari-projection", False, "no Gaussian test state inside O"
    else:
        proj = nehari_project(nstate, nbk)
        bk_p = energy(proj, pot, table)
        rel_j = abs(bk_p.nehari_j) / max(abs(bk_p.q_a), abs(bk_p.v0))
        onman = max(
            abs(bk_p.phi - bk_p.q_a / 4) / (1 + abs(bk_p.phi)),
            abs(bk_p.phi + bk_p.v0 / 4) / (1 + abs(bk_p.phi)),
        )
        yield "nehari-projection", rel_j <= 1e-10, "rel J %.3g" % rel_j
        yield "nehari-identity", onman <= 1e-10, "defect %.3g" % onman
        t_star = float(np.sqrt(-nbk.q_a / nbk.v0))
        ts = np.linspace(0.5 * t_star, 1.5 * t_star, 201)
        vals = [fiber(t, nbk) for t in ts]
        t_hat = ts[int(np.argmax(vals))]
        ok = abs(t_hat - t_star) <= (ts[1] - ts[0]) * 1.0001
        yield "fiber-maximum", ok, "argmax off by %.3g" % abs(t_hat - t_star)


def cmd_check(args) -> int:
    if args.config is None and args.n is None:
        args.n = 32  # default battery grid stays quick
    grid, _, _, cfg, _ = _load_config(args)
    table = _load_table(grid, cfg)
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    gen = _battery(grid, table, rng)
    while True:
        try:
            name, passed, detail = next(gen)
        except StopIteration:
            break
        except ChoquardError as exc:
            print("%-24s FAIL  (aborted: %s)" % ("battery", exc))
            failures += 1
            break
        print("%-24s %s  (%s)" % (name, "PASS" if passed else "FAIL", detail))
        if not passed:
            failures += 1
    if failures:
        print("%d invariant check(s) failed" % failures)
        return EXIT_INVARIANT
    print("all invariant checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run commands


def _print_result(res: SolveResult, prefix: str = "") -> None:
    bk = res.breakdown
    print(
        "%sphi=%.9g q_a=%.9g V0=%.9g J=%.3g cerami=%.3g iters=%d "
        "class=%s defect=%.3g converged=%s"
        % (
            prefix,
            bk.phi,
            bk.q_a,
            bk.v0,
            bk.nehari_j,
            res.cerami,
            res.iters,
            res.nehari.label,
            res.certificate.defect,
            res.converged,
        )
    )


def cmd_solve(args) -> int:
    grid, pot, action, cfg, extra = _load_config(args)
    table = _load_table(grid, cfg)
    if args.start:
        u0 = _read_field(args.start, grid)
    else:
        u0 = make_bump_family(0, action, pot, table, cfg).start(0)
    outputs = ["solution.chq", "trace.csv"]
    write_manifest(args.out, "solve", extra["pairs"], outputs)
    try:
        res = descend(u0, action, pot, table, cfg)
    except DESCENT_ERRORS as exc:
        res = getattr(exc, "result", None)
        if res is None:
            raise
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
    save_field(os.path.join(args.out, "solution.chq"), res.u)
    write_trace(os.path.join(args.out, "trace.csv"), res.trace)
    _print_result(res)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_ground_state(args) -> int:
    grid, pot, action, cfg, extra = _load_config(args)
    if pot.ess_inf <= 0:
        raise ConfigError(
            "indefinite potential: global minimality not certified; use multistart_search"
        )
    table = _load_table(grid, cfg)
    outputs = ["solution.chq", "trace.csv"]
    write_manifest(args.out, "ground-state", extra["pairs"], outputs)
    res = ground_state(action, pot, table, cfg)
    save_field(os.path.join(args.out, "solution.chq"), res.u)
    write_trace(os.path.join(args.out, "trace.csv"), res.trace)
    _print_result(res)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def cmd_multistart(args) -> int:
    grid, pot, action, cfg, extra = _load_config(args)
    k = extra["k"]
    table = _load_table(grid, cfg)
    results = multistart_search(k, action, pot, table, cfg)
    outputs = ["results.csv"] + [
        name
        for i in range(len(results))
        for name in ("solution_%02d.chq" % i, "trace_%02d.csv" % i)
    ]
    write_manifest(args.out, "multistart", extra["pairs"], outputs)
    with open(os.path.join(args.out, "results.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "index,converged,phi,q_a,v0,nehari_j,cerami,class,defect,iters\n"
        )
        for i, res in enumerate(results):
            fh.write(_result_summary_row(i, res) + "\n")
    for i, res in enumerate(results):
        save_field(os.path.join(args.out, "solution_%02d.chq" % i), res.u)
        write_trace(os.path.join(args.out, "trace_%02d.csv" % i), res.trace)
        _print_result(res, prefix="[%02d] " % i)
    if not any(r.converged for r in results):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_convolve(args) -> int:
    u = _read_field(args.infile)
    grid = u.grid
    khat = getattr(make_kernel_table(grid, args.tau), args.kernel + "_hat")
    pairs = dict(_DEFAULTS)
    pairs["box"] = repr(grid.L)
    pairs["n"] = str(grid.n)
    pairs["tau_split"] = repr(args.tau)
    write_manifest(args.out, "convolve", pairs, ["convolved.chq"])
    w = padded_convolve(grid, u.values, khat)
    save_field(os.path.join(args.out, "convolved.chq"), Field(grid, w))
    print("convolved %s with %s (tau=%g)" % (args.infile, args.kernel, args.tau))
    return EXIT_OK


def cmd_info(args) -> int:
    grid, pot, action, cfg, extra = _load_config(args)
    print("grid: L=%g n=%d h=%.6g" % (grid.L, grid.n, grid.h))
    print("potential: %s  ess_inf=%.6g  sup=%.6g" % (extra["pairs"]["a"], pot.ess_inf, pot.sup_norm))
    ok, reason = check_admissible(action)
    print("symmetry: %s  admissible=%s (%s)" % (action.describe(), ok, reason))
    print("config_hash: %s" % config_hash(extra["pairs"]))
    if args.infile:
        u = _read_field(args.infile, grid)
        rep = norms(u)
        table = make_kernel_table(grid, cfg.tau_split)
        bk = energy(u, pot, table)
        cls = classify(bk, lp_norm(u, 2) ** 2)
        print(
            "field: |u|_2=%.9g H1^2=%.9g X^2=%.9g"
            % (np.sqrt(rep.l2_sq), rep.h1_sq, rep.x_sq)
        )
        print(
            "energy: phi=%.9g q_a=%.9g V0=%.9g J=%.3g class=%s"
            % (bk.phi, bk.q_a, bk.v0, bk.nehari_j, cls.label)
        )
        print("barycenter: (%.6g, %.6g)" % tuple(barycenter_beta(u)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="logchoquard",
        description="Variational solver for the planar logarithmic Choquard equation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--n", type=int, default=None, help="grid points per side")
        p.add_argument("--box", type=float, default=None, help="half side length L")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("check", help="run the invariant battery")
    common(p, out=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="single constrained descent")
    common(p)
    p.add_argument("--start", help="CHQ1 field to start from (default: bump start)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("ground-state", help="minimum-energy solve (needs ess inf a > 0)")
    common(p)
    p.set_defaults(fn=cmd_ground_state)

    p = sub.add_parser("multistart", help="multi-start search for distinct solutions")
    common(p)
    p.add_argument("--k", type=int, default=None, help="bump-family index (k+1 bumps)")
    p.set_defaults(fn=cmd_multistart)

    p = sub.add_parser("convolve", help="convolve a dumped field with a log kernel")
    p.add_argument("--in", dest="infile", required=True, help="CHQ1 input field")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kernel", choices=("k0", "k1", "k2"), default="k0")
    p.add_argument("--tau", type=float, default=0.0)
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("info", help="describe a config and optionally a field")
    common(p, out=False)
    p.add_argument("--in", dest="infile", help="CHQ1 field to inspect")
    p.set_defaults(fn=cmd_info)

    return ap


_CONFIG_ERRORS = (
    ConfigError,
    AdmissibilityError,
    StartFamilyError,
    OutsideScalingRegionError,
)
_CONVERGENCE_ERRORS = (
    LineSearchError,
    RieszSolveError,
    DegenerateNehariError,
    GroundStateError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return EXIT_CONFIG
    except _CONVERGENCE_ERRORS as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ChoquardError as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
