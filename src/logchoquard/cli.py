"""Command-line front end: config parsing, reproducible runs, and `check`.

Configs are plain key=value text (sorted canonicalization, sha256 hash).
Every run writes a manifest.json before any other output so interrupted
runs are detectable. main pins OpenBLAS to one thread before any work, so
the outputs do not depend on the thread count; the manifest records the
thread count it saw (None: no known OpenBLAS query, nothing pinned).
`check` prints one line per check of checks.battery, which defines the
invariants, their inputs and their tolerances. Exit codes: 0 ok, 2 config
error, 3 non-convergence, 4 invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .barycenter import MAX_H as BARYCENTER_MAX_H, beta as barycenter_beta
from .blas import blas_threads, keep_freed_memory, pin_blas_threads
from .checks import battery
from .errors import (
    ChoquardError,
    ConfigError,
    FieldDataError,
    GridResolutionError,
)
from .field import (
    Field,
    Grid,
    lp_norm,
    load_field,
    norms,
    save_field,
)
from .functionals import (
    Potential,
    classify,
    const_potential,
    cos2d_potential,
    energy,
    make_potential,
    radial_well_potential,
)
from .logkernel import (
    KernelTable,
    kernel_fft,
    make_kernel_table,
    padded_convolve,
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
    except (ValueError, ChoquardError) as exc:
        raise ConfigError("bad potential spec %r: %s" % (spec, exc))
    raise ConfigError("unknown potential kind %r" % kind)


def _build_action(grid: Grid, spec: str) -> GroupAction:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "trivial":
            return trivial_action()
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
            tau_split=float(pairs["tau_split"]),
        )
        k, seed = int(pairs["k"]), int(pairs["seed"])
        if k < 0 or seed < 0:
            raise ValueError("k and seed must be >= 0")
    except ValueError as exc:
        raise ConfigError("bad solver settings: %s" % exc)
    return grid, pot, action, cfg, {"k": k, "seed": seed, "pairs": pairs}


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
        "blas_threads": blas_threads(),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)  # a rewrite never leaves a partial manifest
    if os.environ.get("LOGCHOQUARD_CRASH_AFTER_MANIFEST"):
        raise SystemExit(70)  # crash hook: manifest exists, outputs do not
    return path


def write_trace(path: str, res: SolveResult) -> None:
    """res.trace under the TRACE_COLUMNS header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in res.trace:
            fh.write("%d," % row[0] + ",".join("%.17g" % v for v in row[1:-1]) + ",%d\n" % row[-1])


def _load_table(grid: Grid, cfg: SolveConfig) -> KernelTable:
    table = make_kernel_table(grid, cfg.tau_split)
    if os.environ.get("LOGCHOQUARD_CORRUPT_KERNEL"):
        # corrupt the origin cell of the smooth kernel and of log|x|
        k1, k0 = table.k1.copy(), table.k0.copy()
        k1[0, 0] += 1e-6
        k0[0, 0] += 1e-6
        vars(table).update(k1=k1, k1_hat=kernel_fft(k1), k0=k0, k0_hat=kernel_fft(k0))
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


def _require_resolved(grid: Grid, command: str) -> None:
    """ConfigError unless h <= barycenter.MAX_H, where the barycenter resolves its unit ball."""
    if grid.h > BARYCENTER_MAX_H:
        raise ConfigError(
            "%s needs h <= %g; h = %g (n = %d, box = %g)"
            % (command, BARYCENTER_MAX_H, grid.h, grid.n, grid.L)
        )


def _say(line: str) -> None:
    """Print line to stdout. Once the reader has closed it, drop this line and
    every later one: stdout's descriptor is pointed at the null device, so the
    command still ends with its own exit code."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# invariant battery


def cmd_check(args) -> int:
    if args.config is None and args.n is None:
        args.n = 32  # default battery grid stays quick
    grid, _, _, cfg, extra = _load_config(args)
    _require_resolved(grid, "check")
    table = _load_table(grid, cfg)
    failures = 0
    for names, run in battery(grid, table, np.random.default_rng(extra["seed"])):
        try:
            lines = list(run())
        except ChoquardError as exc:
            lines = [(False, "%s: %s" % (exc.code, exc))] * len(names)
        for name, (passed, detail) in zip(names, lines):
            status = "SKIP" if passed is None else "PASS" if passed else "FAIL"
            _say("%-24s %s  (%s)" % (name, status, detail))
            failures += status == "FAIL"
    if failures:
        _say("%d invariant check(s) failed" % failures)
        return EXIT_INVARIANT
    _say("all invariant checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run commands


# the results.csv header: row index, the nine fields of _RESULT_ROW, start
_RESULT_COLUMNS = "index,converged,phi,q_a,v0,nehari_j,cerami,class,defect,iters,start"
# the nine fields of a result, as results.csv writes them
_RESULT_ROW = (
    "%(converged)d,%(phi).17g,%(q_a).17g,%(v0).17g,%(nehari_j).17g,%(cerami).17g,"
    "%(class)s,%(defect).17g,%(iters)d"
)
_RESULT_LINE = (
    "phi=%(phi).9g q_a=%(q_a).9g V0=%(v0).9g J=%(nehari_j).3g cerami=%(cerami).3g "
    "iters=%(iters)d class=%(class)s defect=%(defect).3g converged=%(converged)s"
)


def _result_fields(res: SolveResult) -> dict:
    bk = res.breakdown
    return {
        "converged": res.converged,
        "phi": bk.phi,
        "q_a": bk.q_a,
        "v0": bk.v0,
        "nehari_j": bk.nehari_j,
        "cerami": res.cerami,
        "class": res.nehari.label,
        "defect": res.certificate.defect,
        "iters": res.iters,
    }


def _run(args, command: str, prepare) -> int:
    """The one path of the solving commands.

    prepare(grid, pot, action, table, cfg, k) makes the config checks of
    its command and returns the search, which runs after the manifest and
    returns a list of SolveResult. An error that carries .result is a
    descent that started: its result is written as the unconverged outcome.
    Any other error leaves a manifest that lists no outputs. `multistart`
    knows its result count only after the search, so its manifest first
    lists results.csv and is rewritten with every output after it. Exit 0
    if any result converged, else 3.
    """
    grid, pot, action, cfg, extra = _load_config(args)
    _require_resolved(grid, command)
    table = _load_table(grid, cfg)
    search = prepare(grid, pot, action, table, cfg, extra["k"])
    pairs, indexed = extra["pairs"], command == "multistart"
    listed = ["results.csv"] if indexed else ["solution.chq", "trace.csv"]
    write_manifest(args.out, command, pairs, listed)
    try:
        results = search()
    except ChoquardError as exc:
        if getattr(exc, "result", None) is None:
            write_manifest(args.out, command, pairs, [])  # nothing was written
            raise
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        results = [exc.result]
    files = [("solution.chq", "trace.csv", "")]
    if indexed:
        files = [
            ("solution_%02d.chq" % i, "trace_%02d.csv" % i, "[%02d] " % i)
            for i in range(len(results))
        ]
        write_manifest(args.out, command, pairs, listed + [name for f in files for name in f[:2]])
        with open(os.path.join(args.out, "results.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_RESULT_COLUMNS + "\n")
            for i, res in enumerate(results):
                fh.write("%d," % i + _RESULT_ROW % _result_fields(res) + ",%d\n" % res.start_index)
    for (solution, trace, prefix), res in zip(files, results):
        save_field(os.path.join(args.out, solution), res.u)
        write_trace(os.path.join(args.out, trace), res)
        _say(prefix + _RESULT_LINE % _result_fields(res))
    return EXIT_OK if any(r.converged for r in results) else EXIT_NO_CONVERGENCE


def cmd_solve(args) -> int:
    def prepare(grid, pot, action, table, cfg, k):
        u0 = _read_field(args.start, grid) if args.start else None

        def search():
            start = make_bump_family(0, action, pot, table, cfg).starts[0] if u0 is None else u0
            return [descend(start, action, pot, table, cfg)]

        return search

    return _run(args, "solve", prepare)


def cmd_ground_state(args) -> int:
    def prepare(grid, pot, action, table, cfg, k):
        if pot.ess_inf <= 0:
            raise ConfigError(
                "indefinite potential: global minimality not certified; use multistart_search"
            )
        return lambda: [ground_state(action, pot, table, cfg)]

    return _run(args, "ground-state", prepare)


def cmd_multistart(args) -> int:
    def prepare(grid, pot, action, table, cfg, k):
        return lambda: multistart_search(k, action, pot, table, cfg)

    return _run(args, "multistart", prepare)


def cmd_convolve(args) -> int:
    if not (np.isfinite(args.tau) and args.tau >= 0):
        raise ConfigError("--tau must be finite and >= 0, got %g" % args.tau)
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
    _say("convolved %s with %s (tau=%g)" % (args.infile, args.kernel, args.tau))
    return EXIT_OK


def cmd_info(args) -> int:
    grid, pot, action, cfg, extra = _load_config(args)
    if args.infile:
        _require_resolved(grid, "info --in")  # the field report ends with the barycenter
    _say("grid: L=%g n=%d h=%.6g" % (grid.L, grid.n, grid.h))
    _say("potential: %s  ess_inf=%.6g  sup=%.6g" % (extra["pairs"]["a"], pot.ess_inf, pot.sup_norm))
    ok, reason = check_admissible(action)
    _say("symmetry: %s  admissible=%s (%s)" % (action.describe(), ok, reason))
    _say("config_hash: %s" % config_hash(extra["pairs"]))
    if args.infile:
        u = _read_field(args.infile, grid)
        rep = norms(u)
        table = make_kernel_table(grid, cfg.tau_split)
        bk = energy(u, pot, table)
        cls = classify(bk, lp_norm(u, 2) ** 2)
        _say(
            "field: |u|_2=%.9g H1^2=%.9g X^2=%.9g"
            % (np.sqrt(rep.l2_sq), rep.h1_sq, rep.x_sq)
        )
        _say(
            "energy: phi=%.9g q_a=%.9g V0=%.9g J=%.3g class=%s"
            % (bk.phi, bk.q_a, bk.v0, bk.nehari_j, cls.label)
        )
        _say("barycenter: (%.6g, %.6g)" % tuple(barycenter_beta(u)))
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
    p.add_argument("--start", help="field dump to start from (default: bump start)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("ground-state", help="minimum-energy solve (needs ess inf a > 0)")
    common(p)
    p.set_defaults(fn=cmd_ground_state)

    p = sub.add_parser("multistart", help="multi-start search for distinct solutions")
    common(p)
    p.add_argument(
        "--k", type=int, default=None,
        help="bump-family index: k+1 bumps; under trivial/lattice one per kind of "
        "critical point of a (min, max, saddle), at most k+1",
    )
    p.set_defaults(fn=cmd_multistart)

    p = sub.add_parser("convolve", help="convolve a dumped field with a log kernel")
    p.add_argument("--in", dest="infile", required=True, help="input field dump")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kernel", choices=("k0", "k1", "k2"), default="k0")
    p.add_argument("--tau", type=float, default=0.0)
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("info", help="describe a config and optionally a field")
    common(p, out=False)
    p.add_argument("--in", dest="infile", help="field dump to inspect")
    p.set_defaults(fn=cmd_info)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_blas_threads()  # OpenBLAS sums round by its thread split
    keep_freed_memory()  # reuse freed temporaries without faulting them in again
    try:
        return args.fn(args)
    except ChoquardError as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
