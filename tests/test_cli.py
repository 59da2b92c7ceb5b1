"""Config grammar, exit codes, manifest-first output discipline, determinism."""

import contextlib
import ctypes
import filecmp
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logchoquard import (
    ConfigError,
    Field,
    Grid,
    RieszSolveError,
    gaussian_field,
    load_field,
    make_kernel_table,
    padded_convolve,
    save_field,
)
from logchoquard.blas import keep_freed_memory
from logchoquard.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    config_hash,
    main,
    parse_config,
    serialize_config,
)
from logchoquard.solver import TRACE_COLUMNS, SolveConfig


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ------------------------------------------------------------- config parsing


def test_defaults_on_empty_config():
    grid, pot, action, cfg, extra = parse_config("")
    assert (grid.L, grid.n) == (6.0, 64)
    assert pot.ess_inf == pytest.approx(1.0)
    assert action.kind == "trivial"
    assert extra["k"] == 2
    assert cfg.max_iters == 1200
    assert cfg.cerami_tol == 1e-6
    assert extra["seed"] == 0
    # the key defaults of cli._DEFAULTS build the field defaults of SolveConfig
    assert cfg == SolveConfig()


def test_serialize_is_canonical_fixed_point():
    text = "n = 32\nbox = 4.0\nseed = 9\n"
    _, _, _, _, extra = parse_config(text)
    canon = serialize_config(extra["pairs"])
    # sorted, one key = value per line, and a fixed point of reparsing
    assert canon == serialize_config(parse_config(canon)[4]["pairs"])
    keys = [line.split(" = ")[0] for line in canon.strip().splitlines()]
    assert keys == sorted(keys)
    assert "n = 32" in canon and "box = 4.0" in canon and "seed = 9" in canon


def test_comments_and_blank_lines_ignored():
    _, _, _, _, extra = parse_config("# comment\n\n  \nn = 32\n")
    assert extra["pairs"]["n"] == "32"


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3: unknown key 'bogus'"):
        parse_config("# header\nn = 32\nbogus = 1\n")


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        parse_config("n = 32\njust words\n")


def test_empty_value_reports_line():
    with pytest.raises(ConfigError, match="line 1: empty value"):
        parse_config("n =\n")


def test_bad_grid_rejected():
    with pytest.raises(ConfigError, match="bad grid"):
        parse_config("n = 33\n")
    with pytest.raises(ConfigError, match="bad grid"):
        parse_config("box = -2\n")


def test_bad_solver_settings_rejected():
    with pytest.raises(ConfigError, match="bad solver settings"):
        parse_config("max_iters = many\n")
    with pytest.raises(ConfigError, match="bad solver settings"):
        parse_config("k = -1\n")
    for text in ("cerami_tol = inf\n", "cerami_tol = nan\n", "tau_split = nan\n", "tau_split = inf\n"):
        with pytest.raises(ConfigError, match="bad solver settings"):
            parse_config(text)
    with pytest.raises(ConfigError, match="unknown key 'riesz_tol'"):
        parse_config("riesz_tol = 1e-10\n")


def test_bad_seed_rejected(capsys):
    # check seeds its battery generator from the key, which takes no negative seed
    for bad in ("x", "-1"):
        with pytest.raises(ConfigError, match="bad solver settings"):
            parse_config("seed = %s\n" % bad)
    assert main(["check", "--seed", "-1"]) == EXIT_CONFIG
    assert "k and seed must be >= 0" in capsys.readouterr().err


def test_potential_kinds(tmp_path):
    grid, pot, _, _, _ = parse_config("a = const:2.5\n")
    assert pot.ess_inf == pytest.approx(2.5)

    _, pot, _, _, _ = parse_config("a = cos2d:1,0.25,0.5,0.5\n")
    # the formula's extrema over the cell centres, inside its range [0.75, 1.25]
    c = np.cos(np.pi * grid.axis)
    vals = 1.0 + 0.25 * np.outer(c, c)
    assert pot.ess_inf == pytest.approx(np.min(vals)) and pot.ess_inf >= 0.75
    assert pot.sup_norm == pytest.approx(np.max(vals)) and pot.sup_norm <= 1.25

    _, pot, _, _, _ = parse_config("a = radial-well:0.5,2\n")
    i0 = grid.n // 2  # a cell touching the origin
    s2 = (grid.r[i0, i0] / 2.0) ** 2
    assert pot.a.values[i0, i0] == pytest.approx(1.0 - 0.5 * np.exp(1.0 - 1.0 / (1.0 - s2)))
    assert pot.ess_inf == pot.a.values[i0, i0]

    a = Field(Grid(L=6.0, n=32), np.full((32, 32), 1.75))
    path = tmp_path / "a.chq"
    save_field(str(path), a)
    _, pot, _, _, _ = parse_config("n = 32\na = file:%s\n" % path)
    assert pot.ess_inf == pytest.approx(1.75)

    with pytest.raises(ConfigError, match="does not match"):
        parse_config("n = 64\na = file:%s\n" % path)
    with pytest.raises(ConfigError, match="unknown potential kind"):
        parse_config("a = sombrero:1\n")
    with pytest.raises(ConfigError, match="bad potential spec"):
        parse_config("a = cos2d:1,2\n")


def test_symmetry_kinds():
    specs = {
        "trivial": ("trivial", None),
        "rot-zeta:1": ("rot-zeta", 1),
        "rot:2": ("rot-zeta", 2),
        "lattice:2,0;0,2": ("lattice", None),
        "glide:1.5": ("glide", None),
    }
    for spec, (kind, m) in specs.items():
        _, _, action, _, _ = parse_config("symmetry = %s\n" % spec)
        assert action.kind == kind
        if m is not None:
            assert action.m == m
    _, _, act_z, _, _ = parse_config("symmetry = rot-zeta:2\n")
    _, _, act_p, _, _ = parse_config("symmetry = rot:2\n")
    assert act_z.zeta_nontrivial and not act_p.zeta_nontrivial

    with pytest.raises(ConfigError, match="unknown symmetry kind"):
        parse_config("symmetry = moebius\n")
    with pytest.raises(ConfigError, match="bad symmetry spec"):
        parse_config("symmetry = rot-zeta:0\n")
    with pytest.raises(ConfigError, match="bad symmetry spec"):
        parse_config("symmetry = lattice:1,0\n")
    with pytest.raises(ConfigError, match="need b1x,b1y;b2x,b2y"):
        parse_config("symmetry = lattice:1,0,0;0,1\n")


def test_config_hash_deterministic_and_sensitive():
    pairs = parse_config("n = 32\n")[4]["pairs"]
    again = parse_config("# noise\nn = 32\n")[4]["pairs"]
    assert config_hash(pairs) == config_hash(again)
    other = dict(pairs, seed="1")
    assert config_hash(other) != config_hash(pairs)
    assert len(config_hash(pairs)) == 64  # sha256 hex


# --------------------------------------------------------------- exit codes


def test_main_missing_config_file_exits_2(capsys):
    rc = main(["info", "--config", "/no/such/file.cfg"])
    assert rc == EXIT_CONFIG
    assert "E-CONFIG" in capsys.readouterr().err


def test_main_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bogus = 1\n")
    rc = main(["info", "--config", cfg])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "E-CONFIG" in err and "line 1" in err


def test_rejected_symmetry_classes_exit_2(tmp_path, capsys):
    # the radial class and turns by pi/m, m >= 3, are not index-exact
    for spec in ("radial", "rot-zeta:3", "rot:4"):
        cfg = write_config(tmp_path, "n = 32\nsymmetry = %s\n" % spec)
        out = tmp_path / spec.replace(":", "_")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "E-CONFIG" in capsys.readouterr().err
        assert not (out / "solution.chq").exists()


def test_ground_state_indefinite_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 32\na = cos2d:0,0.5,0.25,0.25\n")
    rc = main(["ground-state", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "indefinite potential" in capsys.readouterr().err


def test_solve_budget_exhaustion_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 32\nmax_iters = 2\n")
    out = tmp_path / "o"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    # outputs still written for post-mortem inspection
    assert (out / "manifest.json").exists()
    assert (out / "solution.chq").exists()
    assert (out / "trace.csv").exists()
    assert "converged=False" in capsys.readouterr().out


def stall_metric_solves(monkeypatch):
    """Every metric solve from the third on raises RieszSolveError."""
    import logchoquard.solver as solver_mod

    real_solve, calls = solver_mod.solve_metric_system, []

    def stalling(*args, **kwargs):
        calls.append(None)
        if len(calls) >= 3:
            raise RieszSolveError("stalled", residual=1.0)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_metric_system", stalling)


def test_solve_descent_error_writes_outputs_and_exits_3(monkeypatch, tmp_path, capsys):
    # a metric solve that stalls in the third row ends the descent
    stall_metric_solves(monkeypatch)
    cfg = write_config(tmp_path, "box = 6\nn = 32\n")
    out = tmp_path / "o"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    assert "E-RIESZ" in capsys.readouterr().err
    assert (out / "manifest.json").exists()
    assert load_field(str(out / "solution.chq")).grid.n == 32
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)


def test_solve_error_before_the_first_row_lists_no_outputs(tmp_path, capsys):
    # the invariant projection of rot-zeta:1 (u(-x) = -u(x)) annihilates a
    # centred Gaussian, so the descent raises before its first row and
    # there is no iterate to write: the manifest lists nothing
    start = tmp_path / "g.chq"
    save_field(str(start), gaussian_field(Grid(L=6.0, n=32), width=0.7))
    cfg = write_config(tmp_path, "n = 32\nsymmetry = rot-zeta:1\n")
    out = tmp_path / "o"
    rc = main(["solve", "--config", cfg, "--start", str(start), "--out", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    assert "E-NEHARI-DEGENERATE" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["outputs"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_solve_start_outside_O_exits_2_and_lists_no_outputs(tmp_path, capsys):
    # a faint wide Gaussian has q_a * V0 >= 0: the descent refuses it before
    # its first row, so it is a configuration error with nothing to write
    start = tmp_path / "g.chq"
    save_field(str(start), gaussian_field(Grid(L=6.0, n=64), width=3.5, amplitude=0.1))
    cfg = write_config(tmp_path, "n = 64\n")
    out = tmp_path / "o"
    rc = main(["solve", "--config", cfg, "--start", str(start), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "E-OUTSIDE-O" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["outputs"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_multistart_descent_error_writes_every_listed_output_and_exits_3(monkeypatch, tmp_path, capsys):
    # multistart_search keeps the stalled descent's last iterate as an
    # unconverged result; the runner writes it like any other result
    stall_metric_solves(monkeypatch)
    cfg = write_config(tmp_path, "box = 6\nn = 32\nk = 0\n")
    out = tmp_path / "o"
    rc = main(["multistart", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    assert "converged=False" in capsys.readouterr().out
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert listed == ["results.csv", "solution_00.chq", "trace_00.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json"] + listed)


@pytest.mark.parametrize("command, text", [
    ("solve", "n = 16\nbox = 1.25\nk = 0\n"),
    ("multistart", "n = 16\nbox = 1.25\nk = 0\n"),
    ("ground-state", "n = 32\nbox = 1.25\n"),
], ids=["solve", "multistart", "ground-state"])
def test_a_start_family_that_does_not_fit_exits_2_and_lists_no_outputs(tmp_path, capsys, command, text):
    # every solving command builds its start family after the manifest, so
    # a family that does not fit the box leaves a manifest with no outputs
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    assert "E-START-FAMILY" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["outputs"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


# each error class of logchoquard.errors and the exit status main returns for it
ERROR_EXIT_CODES = {
    "ChoquardError": EXIT_INVARIANT,
    "GridMismatchError": EXIT_INVARIANT,
    "GridResolutionError": EXIT_INVARIANT,
    "FieldDataError": EXIT_INVARIANT,
    "ConfigError": EXIT_CONFIG,
    "OutsideScalingRegionError": EXIT_CONFIG,
    "BarycenterUndefinedError": EXIT_INVARIANT,
    "DegenerateNehariError": EXIT_NO_CONVERGENCE,
    "RieszSolveError": EXIT_NO_CONVERGENCE,
    "LineSearchError": EXIT_NO_CONVERGENCE,
    "StartFamilyError": EXIT_CONFIG,
    "AdmissibilityError": EXIT_CONFIG,
    "GroundStateError": EXIT_NO_CONVERGENCE,
}


def test_main_exits_with_the_code_of_each_error_class(monkeypatch, capsys):
    import logchoquard.cli as cli
    import logchoquard.errors as errors

    classes = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.ChoquardError)
    ]
    assert sorted(cls.__name__ for cls in classes) == sorted(ERROR_EXIT_CODES)
    for cls in classes:
        def raising(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_info", raising)
        assert main(["info"]) == ERROR_EXIT_CODES[cls.__name__], cls.__name__
        assert capsys.readouterr().err == "%s: boom\n" % cls.code


# ------------------------------------------------------------------ battery


BATTERY_NAMES = (
    "B0-splitting", "kernel-table-pointwise", "kernel-origin-cell", "B0-symmetry", "B0-oracle",
    "V1-lower-bound", "barycenter-shift", "barycenter-scale", "metric-M1", "metric-M3", "metric-M4",
    "gradient-fd", "riesz-identity", "scaling-gradient", "scaling-v0",
    "nehari-projection", "nehari-identity", "fiber-maximum",
)


def battery_lines(out):
    """{name: line} of the printed checks; the last line is the summary."""
    return {line.split()[0]: line for line in out.splitlines()[:-1]}


def test_check_battery_passes(capsys):
    rc = main(["check"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "all invariant checks passed" in out
    assert tuple(battery_lines(out)) == BATTERY_NAMES
    assert "FAIL" not in out and "SKIP" not in out
    # for n > 32 the direct O(n^4) oracle is skipped, and says so
    assert main(["check", "--n", "64"]) == EXIT_OK
    lines = battery_lines(capsys.readouterr().out)
    assert tuple(lines) == BATTERY_NAMES and lines["B0-oracle"].split()[1] == "SKIP"


def test_check_refuses_grids_the_barycenter_cannot_resolve(capsys):
    # h = 0.75 cannot resolve the barycenter's unit ball; h = 0.5 can, on
    # boxes where the metric-M3 shift pushes mass out of the box as well
    assert main(["check", "--n", "16"]) == EXIT_CONFIG
    assert "E-CONFIG" in capsys.readouterr().err
    for args in (["--n", "24"], ["--n", "16", "--box", "4"], ["--n", "20", "--box", "5"]):
        assert main(["check"] + args) == EXIT_OK
        lines = battery_lines(capsys.readouterr().out)
        assert tuple(lines) == BATTERY_NAMES
        assert all(line.split()[1] == "PASS" for line in lines.values())


def test_check_runs_every_check_when_one_raises(monkeypatch, capsys):
    # a barycenter that refuses the grid fails the checks that need it with
    # the error's code, and every other check still runs
    import logchoquard.barycenter as barycenter_mod

    monkeypatch.setattr(barycenter_mod, "MAX_H", 0.25)
    assert main(["check", "--n", "24"]) == EXIT_INVARIANT
    lines = battery_lines(capsys.readouterr().out)
    assert tuple(lines) == BATTERY_NAMES
    assert lines["B0-splitting"].split()[1] == "PASS"
    for name in ("barycenter-shift", "barycenter-scale", "metric-M3", "riesz-identity"):
        assert lines[name].split()[1:3] == ["FAIL", "(E-GRID-RESOLUTION:"]


def test_corrupted_kernel_fails_battery(monkeypatch, capsys):
    monkeypatch.setenv("LOGCHOQUARD_CORRUPT_KERNEL", "1")
    rc = main(["check", "--n", "24"])
    assert rc == EXIT_INVARIANT
    out = capsys.readouterr().out
    lines = battery_lines(out)
    for name in ("B0-splitting", "kernel-origin-cell"):
        assert lines[name].split()[1] == "FAIL", name


# ---------------------------------------------------------- run commands


def test_crash_hook_leaves_manifest_only(monkeypatch, tmp_path):
    monkeypatch.setenv("LOGCHOQUARD_CRASH_AFTER_MANIFEST", "1")
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--out", str(out), "--n", "32"])
    assert exc.value.code == 70
    assert (out / "manifest.json").exists()
    assert not (out / "solution.chq").exists()
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("command, search, listed", [
    ("solve", "descend", ["solution.chq", "trace.csv"]),
    ("ground-state", "ground_state", ["solution.chq", "trace.csv"]),
    ("multistart", "multistart_search", ["results.csv"]),
], ids=["solve", "ground-state", "multistart"])
def test_solving_commands_write_their_manifest_before_the_search(monkeypatch, tmp_path, command, search, listed):
    import logchoquard.cli as cli

    def searched(*args, **kwargs):
        raise AssertionError("%s ran before the manifest was written" % search)

    monkeypatch.setenv("LOGCHOQUARD_CRASH_AFTER_MANIFEST", "1")
    monkeypatch.setattr(cli, search, searched)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out), "--n", "32"])
    assert exc.value.code == 70
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == listed


def test_solve_writes_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["solve", "--out", str(out), "--n", "32"])
    assert rc == EXIT_OK
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve"
    assert man["grid"] == {"L": 6.0, "n": 32}
    assert man["outputs"] == ["solution.chq", "trace.csv"]
    assert man["config_hash"] == config_hash(parse_config("n = 32\n")[4]["pairs"])
    u = load_field(str(out / "solution.chq"))
    assert (u.grid.L, u.grid.n) == (6.0, 32)
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) >= 2
    assert "converged=True" in capsys.readouterr().out


def test_solve_deterministic_bitwise(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--out", str(out1), "--n", "32"]) == EXIT_OK
    assert main(["solve", "--out", str(out2), "--n", "32"]) == EXIT_OK
    assert filecmp.cmp(out1 / "solution.chq", out2 / "solution.chq", shallow=False)
    assert filecmp.cmp(out1 / "trace.csv", out2 / "trace.csv", shallow=False)


# a capped rot-zeta:2 solve, and a capped multistart whose two starts, on a
# minimum and a maximum of a, are descended side by side
BLAS_INPUTS = {
    "solve": ("box = 6\nn = 128\nsymmetry = rot-zeta:2\nmax_iters = 5\n",
              ["manifest.json", "solution.chq", "trace.csv"]),
    "multistart": ("box = 8\nn = 128\na = cos2d:1.0,0.5,1.0,1.0\n"
                   "symmetry = lattice:1,0;0,1\nk = 1\nmax_iters = 5\n",
                   ["manifest.json", "results.csv", "solution_00.chq", "solution_01.chq",
                    "trace_00.csv", "trace_01.csv"]),
}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits its dot products and the sine-matrix products of a
    # restricted solve by thread count, so unpinned runs of these capped
    # searches differ in their last bits under one and two threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    for command, (text, written) in BLAS_INPUTS.items():
        cfg = write_config(tmp_path, text)
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / command / ("t" + threads)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "logchoquard", command, "--config", cfg, "--out", str(out)],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == EXIT_NO_CONVERGENCE, proc.stderr
            assert json.loads((out / "manifest.json").read_text())["blas_threads"] == 1
            digests.append({
                f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())
            })
        assert sorted(digests[0]) == written, command
        assert digests[0] == digests[1], command


HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not HAS_MALLOPT, reason="libc has no mallopt")
def test_keep_freed_memory_sets_both_thresholds_and_can_be_called_again():
    assert keep_freed_memory() is True
    assert keep_freed_memory() is True


WARM_RUN = """
import contextlib, io, resource, sys
from logchoquard.cli import main
cfg, out = sys.argv[1:]
faults = []
for run in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ground-state", "--config", cfg, "--out", out + str(run)]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


@pytest.mark.skipif(not HAS_MALLOPT, reason="libc has no mallopt")
def test_a_warm_cli_run_does_not_refault_memory(tmp_path):
    # the CLI keeps freed heap memory and convolves in a reused workspace,
    # so a second run in the same process finds its pages already mapped
    # (under glibc's default heap policy it faults about 1900 pages in again)
    cfg = write_config(tmp_path, "box = 12\nn = 128\na = const:1\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WARM_RUN, cfg, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200


def test_solve_start_field_grid_mismatch_exits_2(tmp_path, capsys):
    u = gaussian_field(Grid(L=6.0, n=16), width=0.6)
    start = tmp_path / "start.chq"
    save_field(str(start), u)
    rc = main(["solve", "--out", str(tmp_path / "o"), "--n", "32", "--start", str(start)])
    assert rc == EXIT_CONFIG
    assert "does not match" in capsys.readouterr().err


def _bad_field_file(tmp_path, kind):
    path = tmp_path / "field.chq"
    if kind == "missing":
        return str(path)
    save_field(str(path), gaussian_field(Grid(L=6.0, n=32), width=0.6))
    raw = path.read_bytes()
    if kind == "truncated":
        path.write_bytes(raw[:100])
    elif kind == "bad-magic":
        path.write_bytes(b"XXXX" + raw[4:])
    else:  # header n names no valid grid, or more samples than the file holds
        n = {"bad-n": 15, "huge-n": 2**32 - 1}[kind]
        path.write_bytes(raw[:4] + n.to_bytes(4, "little") + raw[8:])
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "truncated", "bad-magic", "bad-n", "huge-n"])
@pytest.mark.parametrize("site", ["solve-start", "info-in", "convolve-in", "potential-file"])
def test_bad_input_field_file_exits_2(tmp_path, capsys, site, kind):
    path = _bad_field_file(tmp_path, kind)
    out = str(tmp_path / "o")
    argv = {
        "solve-start": ["solve", "--n", "32", "--out", out, "--start", path],
        "info-in": ["info", "--n", "32", "--in", path],
        "convolve-in": ["convolve", "--in", path, "--out", out],
        "potential-file": ["info", "--config", write_config(tmp_path, "n = 32\na = file:%s\n" % path)],
    }[site]
    rc = main(argv)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "E-CONFIG" in err and "field.chq" in err


def test_a_chq1_potential_dump_exits_2(tmp_path, capsys):
    # CHQ1 dumps sampled x_i = -L + i h; read on cell centres they would sit
    # half a cell off, so their magic is refused
    path = tmp_path / "old.chq"
    path.write_bytes(b"CHQ1" + struct.pack("<Id", 32, 6.0) + np.ones(32 * 32).astype("<f8").tobytes())
    rc = main(["info", "--config", write_config(tmp_path, "n = 32\na = file:%s\n" % path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "E-CONFIG" in err and "magic" in err


@pytest.mark.parametrize("command, text", [
    ("info", "a = const:nan\n"),
    ("info", "a = const:1e400\n"),
    ("solve", "n = 32\nbox = 1e200\n"),
    ("solve", "n = 32\nbox = 9e153\n"),
    ("ground-state", "n = 32\nbox = 9\n"),
    ("multistart", "n = 32\nbox = 9\n"),
    ("solve", "n = 32\nsymmetry = lattice:1e300,0;0,1\n"),
    ("solve", "n = 32\nsymmetry = glide:nan\n"),
], ids=["info-nan", "info-1e400", "solve-box-1e200", "solve-box-9e153", "ground-state-h", "multistart-h",
        "solve-lattice-1e300", "solve-glide-nan"])
def test_configs_without_a_usable_grid_or_potential_exit_2(tmp_path, capsys, command, text):
    # non-finite potential samples, and h > barycenter.MAX_H (box 9 at n = 32
    # gives h = 0.5625), and symmetry vectors that are not finite or span n
    # cells or more, are refused before anything is written
    out = tmp_path / "o"
    argv = [command, "--config", write_config(tmp_path, text)]
    if command != "info":
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "E-CONFIG" in capsys.readouterr().err
    assert not out.exists()


def _spec(kind, arity):
    number = st.sampled_from(["0", "1", "-1", "0.5", "2.5", "1e-3", "1e400", "nan", "inf", "x"])
    return st.lists(number, min_size=arity, max_size=arity).map(lambda v: kind + ":" + ",".join(v))


# the README's keys, each over good, edge and bad values of its spec grammar
CONFIG_VALUES = {
    "box": st.sampled_from(["6", "4", "3", "8", "12", "0.5", "1e-3", "0", "-2", "9e153", "1e200", "nan", "x"]),
    "n": st.sampled_from(["16", "24", "32", "15", "0", "-4", "x"]),
    "a": st.one_of(
        _spec("const", 1),
        _spec("cos2d", 4),
        _spec("radial-well", 2),
        st.sampled_from(["const:", "cos2d:1,2", "file:missing.chq", "sombrero:1"]),
    ),
    "symmetry": st.one_of(
        st.sampled_from(["trivial", "rot-zeta:1", "rot-zeta:2", "rot:1", "rot:2", "rot-zeta:3", "radial"]),
        st.sampled_from(["lattice:1,0;0,1", "lattice:1,0;2,0", "lattice:1e300,0;0,1", "lattice:1,0"]),
        st.sampled_from(["glide:1", "glide:0", "glide:0.75", "glide:nan", "glide:x"]),
    ),
    "k": st.sampled_from(["0", "1", "2", "3", "-1", "x"]),
    "max_iters": st.sampled_from(["1", "2", "3", "0", "x"]),
    "cerami_tol": st.sampled_from(["1e-6", "1", "1e-300", "0", "-1", "nan", "inf"]),
    "tau_split": st.sampled_from(["0", "0.7", "-1", "nan", "inf"]),
    "seed": st.sampled_from(["0", "5", "-1", "x"]),
}


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True))
    pairs = {key: draw(CONFIG_VALUES[key]) for key in keys}
    # keep the runs small: n <= 32 and at most 3 descent rows
    pairs.setdefault("n", "32")
    pairs.setdefault("max_iters", "3")
    return "".join("%s = %s\n" % kv for kv in pairs.items())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on inf and nan specs
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["check", "info", "solve", "ground-state", "multistart"]), text=config_texts())
def test_generated_configs_keep_the_exit_code_contract(command, text):
    # 2 is a configuration error, 3 no convergence and 4 an invariant
    # failure, which only check reports; nothing raises out of main, and a
    # solving command that exits 0 or 3 leaves its manifest and every
    # output the manifest lists
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        out = os.path.join(tmp, "o")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, "--config", cfg]
        if command not in ("check", "info"):
            argv += ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        if command not in ("check", "info") and rc in (EXIT_OK, EXIT_NO_CONVERGENCE):
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                listed = json.load(fh)["outputs"]
            assert all(os.path.exists(os.path.join(out, name)) for name in listed)
    allowed = (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT) if command == "check" else (
        EXIT_OK, EXIT_CONFIG, EXIT_NO_CONVERGENCE)
    assert rc in allowed


@pytest.mark.parametrize(
    "text, rc, outputs",
    [
        ("box = 8\nn = 64\nmax_iters = 3\n", EXIT_NO_CONVERGENCE, []),
        ("box = 12\nn = 64\n", EXIT_OK, ["solution.chq", "trace.csv"]),
    ],
)
def test_ground_state_keeps_the_manifest_contract(tmp_path, text, rc, outputs):
    # the generated configs stay at n <= 32, where the k=2 family never
    # fits; here ground-state exits 3 with no result, and 0 with one
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["ground-state", "--config", write_config(tmp_path, text), "--out", str(out)]) == rc
    assert json.loads((out / "manifest.json").read_text())["outputs"] == outputs
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json"] + outputs)


def test_multistart_writes_results_csv(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["multistart", "--out", str(out), "--n", "32", "--k", "0"])
    assert rc == EXIT_OK
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("index,converged,phi")
    assert len(lines) == 2  # one orbit survives dedup
    assert (out / "solution_00.chq").exists()
    assert (out / "trace_00.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["outputs"] == ["results.csv", "solution_00.chq", "trace_00.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json"] + man["outputs"])
    assert "[00]" in capsys.readouterr().out


def test_default_multistart_returns_one_orbit(tmp_path, capsys):
    # a constant a has no critical point: the default family is one bump at
    # the origin, one descent, one orbit, from start 0
    out = tmp_path / "o"
    assert main(["multistart", "--out", str(out)]) == EXIT_OK
    header, *rows = (out / "results.csv").read_text().splitlines()
    assert header.split(",")[:3] == ["index", "converged", "phi"]
    assert header.split(",")[-1] == "start"
    assert len(rows) == 1
    assert rows[0].split(",")[1] == "1" and rows[0].split(",")[-1] == "0"
    assert capsys.readouterr().out.count("[") == 1


def test_default_ground_state_descends_once(tmp_path, monkeypatch, capsys):
    import logchoquard.solver as solver_mod

    calls = []
    real = solver_mod.descend
    monkeypatch.setattr(solver_mod, "descend", lambda *args: calls.append(args[0]) or real(*args))
    assert main(["ground-state", "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("corrupt, rc", [("", EXIT_OK), ("1", EXIT_INVARIANT)], ids=["clean", "corrupt"])
def test_closed_stdout_keeps_the_exit_code(corrupt, rc):
    # a reader that takes one line and closes the pipe (as `check | head -1`
    # does): the rest of the output is dropped, with no traceback, and the
    # command exits with the code of its checks; unbuffered, each later line
    # meets the closed pipe
    env = dict(os.environ, PYTHONUNBUFFERED="1", LOGCHOQUARD_CORRUPT_KERNEL=corrupt)
    proc = subprocess.Popen(
        [sys.executable, "-m", "logchoquard", "check"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    assert proc.stdout.readline().startswith("B0-splitting")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == rc
    assert err == ""


def test_convolve_matches_library(tmp_path, capsys):
    grid = Grid(L=6.0, n=32)
    u = gaussian_field(grid, width=0.7, amplitude=1.2)
    src = tmp_path / "u.chq"
    save_field(str(src), u)
    out = tmp_path / "o"
    rc = main(["convolve", "--in", str(src), "--out", str(out), "--kernel", "k1", "--tau", "0.7"])
    assert rc == EXIT_OK
    w = load_field(str(out / "convolved.chq"))
    table = make_kernel_table(grid, 0.7)
    want = padded_convolve(grid, u.values, table.k1_hat)
    assert np.array_equal(w.values, want)
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "convolve"
    assert "convolved" in capsys.readouterr().out


def test_convolve_negative_tau_exits_2(tmp_path, capsys):
    # a negative or non-finite tau is refused before the manifest is written
    src = tmp_path / "u.chq"
    save_field(str(src), gaussian_field(Grid(L=6.0, n=32), width=0.7))
    for i, (tau, kernel) in enumerate(
        [("-1", "k0"), ("nan", "k0"), ("nan", "k1"), ("inf", "k2"), ("1e400", "k1")]
    ):
        out = tmp_path / ("o%d" % i)
        rc = main(["convolve", "--in", str(src), "--out", str(out), "--tau", tau, "--kernel", kernel])
        assert rc == EXIT_CONFIG
        assert "E-CONFIG" in capsys.readouterr().err
        assert not out.exists()


def test_info_reports_config_and_field(tmp_path, capsys):
    grid = Grid(L=6.0, n=32)
    u = gaussian_field(grid, width=0.6, center=(0.75, 0.0))
    src = tmp_path / "u.chq"
    save_field(str(src), u)
    rc = main(["info", "--n", "32", "--in", str(src)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "grid: L=6 n=32" in out
    assert "ess_inf=1" in out
    assert "symmetry: trivial" in out and "admissible=" in out
    assert "config_hash: %s" % config_hash(parse_config("n = 32\n")[4]["pairs"]) in out
    assert "barycenter: (" in out
    assert "class=" in out


def test_info_in_on_coarse_grid_exits_2_before_output(tmp_path, capsys):
    # h = 0.75 > 0.5: the field report ends with the barycenter, which
    # cannot resolve its unit ball, so info --in refuses before printing
    grid = Grid(L=6.0, n=16)
    src = tmp_path / "f.chq"
    save_field(str(src), gaussian_field(grid, width=1.5))
    rc = main(["info", "--n", "16", "--box", "6", "--in", str(src)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "E-CONFIG" in captured.err and "h <=" in captured.err


def test_cli_overrides_fold_into_hash(capsys):
    rc = main(["info", "--n", "32", "--seed", "7"])
    assert rc == EXIT_OK
    want = config_hash(parse_config("n = 32\nseed = 7\n")[4]["pairs"])
    assert "config_hash: %s" % want in capsys.readouterr().out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "logchoquard", "info", "--n", "16"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "grid: L=6 n=16" in proc.stdout
