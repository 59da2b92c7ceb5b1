"""Self-tests of the benchmark's own code on a tiny grid (n=32, a = const:1).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
from logchoquard import cli, metric, solver  # noqa: E402

TINY = "box = 6\nn = 32\na = const:1\n"


def tiny_descend():
    grid, pot, action, cfg, _ = cli.parse_config(TINY)
    table = cli.make_kernel_table(grid, cfg.tau_split)
    u0 = solver.make_bump_family(0, action, pot, table, cfg).bumps[0]
    return solver.descend(u0, action, pot, table, cfg)


def test_self_time_plus_child_time_is_the_parent_span():
    rec = tracer.Recorder(spans=True)
    with tracer.installed(rec):
        res = tiny_descend()
    assert res.converged
    spans = rec.spans
    own, child = tracer.self_times(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        assert own[i] + child[i] == pytest.approx(end - start, rel=1e-12, abs=1e-12)
        assert own[i] >= -1e-9
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    # direct children of one parent never overlap, so their sum is the time covered
    for p in range(len(spans)):
        kids = sorted((s[1], s[2]) for s in spans if s[3] == p)
        assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(kids, kids[1:]))
    layers = tracer.layer_metrics(rec)
    below = sum(s[2] - s[1] for s in spans if s[3] >= 0 and spans[s[3]][0] == "solver.descend")
    assert layers["solver.descend.self_s"] + below == pytest.approx(layers["solver.descend.s"])
    assert layers["solver.descend.calls"] == 1
    assert layers["solver.descend.iters"] == res.iters
    assert layers["metric.solve_metric_system.calls"] > 0


def test_cg_iters_counts_the_iterations_of_a_forced_solve():
    grid, _, _, _, _ = cli.parse_config(TINY)
    rhs = np.random.default_rng(0).standard_normal((grid.n, grid.n))
    rec = tracer.Recorder(spans=True)
    with tracer.installed(rec):
        ctx = metric.metric_context_at(grid, [0.0, 0.0])
        metric.solve_metric_system(ctx, rhs, tol=0.0, max_iter=7)
        metric.solve_metric_system(ctx, rhs, tol=0.0, max_iter=3)
    assert rec.counts["metric.cg_iters"] == 10
    assert tracer.layer_metrics(rec)["metric.cg_iters_per_solve"] == 5.0


def test_install_restores_every_site_and_counts_outcomes_untraced():
    before = (solver.descend, cli.descend, metric.solve_metric_system)
    rec = tracer.Recorder(spans=False)
    with tracer.installed(rec) as sites:
        assert cli.descend is solver.descend is not before[0]
        assert metric.solve_metric_system is before[2]  # untraced: only the ALWAYS layers
        tiny_descend()
    assert (solver.descend, cli.descend, metric.solve_metric_system) == before
    assert "logchoquard.cli.descend" in sites["solver.descend"]
    assert rec.spans == [] and rec.outcomes == {"converged": 1}
    assert rec.setup_end is not None


def test_missing_wrap_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.SPANNED, "metric.gone", ("logchoquard.metric", "no_such_function"))
    with pytest.raises(RuntimeError, match="no longer exists"):
        with tracer.installed(tracer.Recorder(spans=True)):
            pass


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_the_declared_ones(tmp_path, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    spec = {
        "name": "tiny",
        "command": "solve",
        "config_text": TINY + "seed = 1\n",
        "config_path": str(tmp_path / "run.cfg"),
        "exit_ok": [0],
        "phi_ref": None,
    }
    lines = []
    result = run.measure(spec, 0.1, trace, str(tmp_path), emit=lines.append)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["solver.descend.calls"]["value"] == 1
        assert result["metrics"]["symmetry.project_invariant.calls"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ground", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_command_that_fails_its_check_is_a_failed_operation(tmp_path):
    spec = {
        "name": "tiny-capped",
        "command": "solve",
        "config_text": TINY + "max_iters = 2\n",
        "config_path": str(tmp_path / "run.cfg"),
        "exit_ok": [0],
    }
    lines = []
    result = run.measure(spec, 0.1, False, str(tmp_path), emit=lines.append)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    cmd = next(line for line in lines if line.startswith("cmd00"))
    assert "exit=3" in cmd and "descents=1 converged=0 capped=1" in cmd and "check=FAIL" in cmd
