"""Outside-in spans and counters around the public layer functions of logchoquard.

The solver's modules import each other's functions by name (``from .metric
import solve_metric_system``), so a wrapper must replace the name in every
module that holds it, not only in the module that defines it. ``installed``
finds those names by identity across all loaded ``logchoquard`` modules.
A target that no longer exists is an error: a refactor that renames or
moves a layer function must break the traced run, not leave a layer
reading 0 calls.

Spans (name, start, end, parent) and counters live in memory in a
``Recorder`` and are summarised by ``layer_metrics`` after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# metric prefix -> (defining module, attribute); each gets a span per call
SPANNED = {
    "cli.parse_config": ("logchoquard.cli", "parse_config"),
    "cli.write_trace": ("logchoquard.cli", "write_trace"),
    "field.save_field": ("logchoquard.field", "save_field"),
    "logkernel.make_kernel_table": ("logchoquard.logkernel", "make_kernel_table"),
    "logkernel.padded_convolve": ("logchoquard.logkernel", "padded_convolve"),
    "barycenter.beta": ("logchoquard.barycenter", "beta"),
    "metric.metric_context_at": ("logchoquard.metric", "metric_context_at"),
    "metric.solve_metric_system": ("logchoquard.metric", "solve_metric_system"),
    "functionals.energy": ("logchoquard.functionals", "energy"),
    "symmetry.project_invariant": ("logchoquard.symmetry", "project_invariant"),
    "symmetry.orbit_distance": ("logchoquard.symmetry", "orbit_distance"),
    "solver.make_bump_family": ("logchoquard.solver", "make_bump_family"),
    "solver.descend": ("logchoquard.solver", "descend"),
}
# hundreds of thousands of calls per run: counted, never timed one by one
APPLY = "metric.apply_metric_operator"
COUNTED = {APPLY: ("logchoquard.metric", "apply_metric_operator")}
# wrapped in untraced runs too: the descent outcome counter and the end of set-up
ALWAYS = ("solver.descend", "logkernel.make_kernel_table")


class SetupDone(Exception):
    """Raised after the kernel table is built when only set-up is measured."""


class Recorder:
    """Spans and counters of one worker process."""

    def __init__(self, spans: bool, stop_after_setup: bool = False):
        self.spans_on = spans
        self.stop_after_setup = stop_after_setup
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.outcomes = Counter()  # descent outcomes: converged, capped, raised:<class>
        self.setup_end = None
        self._open = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    # hooks run around the call of the named layer: before() returns a token
    # handed to after() with the call's arguments and outcome

    def before(self, name: str):
        if name == "metric.solve_metric_system":
            return self.counts[APPLY]
        return None

    def after(self, name: str, token, args, kwargs, result, exc) -> None:
        if name == "solver.descend":
            res = result if exc is None else getattr(exc, "result", None)
            self.counts["solver.descend.iters"] += res.iters if res is not None else 0
            if exc is not None:
                self.outcomes["raised:" + type(exc).__name__] += 1
            else:
                self.outcomes["converged" if result.converged else "capped"] += 1
        elif name == "metric.solve_metric_system":
            # one operator application for the start residual and one for the
            # recomputed true residual; every other one is a CG iteration
            self.counts["metric.cg_iters"] += max(0, self.counts[APPLY] - token - 2)
        elif name == "logkernel.padded_convolve":
            values = args[1] if len(args) > 1 else kwargs["values"]
            khat = args[2] if len(args) > 2 else kwargs["khat"]
            self.counts["logkernel.padded_convolve.bytes_computed"] += convolve_bytes(
                values.shape[0], khat.nbytes
            )
        elif name == "logkernel.make_kernel_table" and self.setup_end is None:
            self.setup_end = perf_counter()
            if self.stop_after_setup:
                raise SetupDone()


def convolve_bytes(n: int, khat_nbytes: int) -> int:
    """Bytes one padded_convolve reads and writes, computed from array sizes.

    The n x n input (read) and result (written); the zero-padded 2n x 2n
    buffer and the 2n x 2n inverse transform (each written, then read); the
    half spectrum and the product with the kernel (each written, then read)
    and the kernel spectrum itself (read). Cache behaviour is ignored.
    """
    field = 8 * n * n
    doubled = 8 * 4 * n * n
    return 2 * field + 2 * 2 * doubled + 2 * 2 * khat_nbytes + khat_nbytes


def _target(module: str, attr: str):
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        raise RuntimeError("wrap target %s.%s no longer exists" % (module, attr))
    return getattr(mod, attr)


def _sites(fn):
    """(module, attribute) pairs of every loaded logchoquard module holding fn."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "logchoquard" or modname.startswith("logchoquard.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, attr))
    return found


def _spanned(rec: Recorder, name: str, fn, spans: bool):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        token = rec.before(name)
        idx = rec.enter(name) if spans else None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if idx is not None:
                rec.exit(idx)
            rec.after(name, token, args, kwargs, None, exc)
            raise
        if idx is not None:
            rec.exit(idx)
        rec.after(name, token, args, kwargs, result, None)
        return result

    return wrapped


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapped


@contextmanager
def installed(rec: Recorder):
    """Wrap the layer functions at every call site; restore them on exit.

    Untraced recorders wrap only the ALWAYS layers, without spans. Yields
    {metric prefix: ["module.attr", ...]} naming each replaced site.
    """
    plan = []
    for name, (module, attr) in SPANNED.items():
        if rec.spans_on or name in ALWAYS:
            fn = _target(module, attr)
            plan.append((name, fn, _spanned(rec, name, fn, rec.spans_on)))
    if rec.spans_on:
        for name, (module, attr) in COUNTED.items():
            fn = _target(module, attr)
            plan.append((name, fn, _counted(rec, name, fn)))
    replaced = []
    sites = {}
    try:
        for name, fn, wrapper in plan:
            for mod, attr in _sites(fn):
                setattr(mod, attr, wrapper)
                replaced.append((mod, attr, fn))
                sites.setdefault(name, []).append("%s.%s" % (mod.__name__, attr))
        yield sites
    finally:
        for mod, attr, fn in replaced:
            setattr(mod, attr, fn)


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.

    Children run inside their parent on one thread and never overlap, so the
    time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(spans)], child


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer calls, seconds and counts of one traced command."""
    calls = Counter()
    secs = Counter()
    for name, start, end, _ in rec.spans:
        calls[name] += 1
        secs[name] += end - start
    own, child = self_times(rec.spans)
    descend_idx = [i for i, s in enumerate(rec.spans) if s[0] == "solver.descend"]
    descend_s = secs["solver.descend"]
    descend_child = sum(child[i] for i in descend_idx)
    iters = rec.counts["solver.descend.iters"]
    solves = calls["metric.solve_metric_system"]
    attempted = sum(rec.outcomes.values())
    out = {}
    for name in SPANNED:
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = secs[name]
    out.update(
        {
            APPLY + ".calls": rec.counts[APPLY],
            "metric.cg_iters": rec.counts["metric.cg_iters"],
            "metric.cg_iters_per_solve": rec.counts["metric.cg_iters"] / solves if solves else 0.0,
            "logkernel.padded_convolve.bytes_computed": rec.counts[
                "logkernel.padded_convolve.bytes_computed"
            ],
            "solver.descend.failed": attempted - rec.outcomes["converged"],
            "solver.descend.capped": rec.outcomes["capped"],
            "solver.descend.iters": iters,
            "solver.descend.self_s": sum(own[i] for i in descend_idx),
            "solver.descend.iter_ms": 1e3 * descend_s / iters if iters else 0.0,
            "trace.coverage": descend_child / descend_s if descend_s else 0.0,
        }
    )
    return out
