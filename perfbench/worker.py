"""One fresh worker process: set-up and one CLI command, then its correctness check.

    python3 perfbench/worker.py --spec SPEC.json --out DIR --result RESULT.json
                                [--setup-only] [--trace]

The worker makes the same calls as ``logchoquard <command> --config ...``:
it imports ``logchoquard.cli`` and calls ``cli.main``. The timed region ends
when ``main`` returns; the check, the output hashes and the library facts
come after it. The result is written to RESULT.json. The worker exits
non-zero without a result when it cannot measure: BLAS threads not pinned
before numpy loads, the package not found under the checkout's ``src``, or
a wrap target gone. A crash inside the program is a measured, failed run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

from tracer import Recorder, SetupDone, installed, layer_metrics

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it exposes no query."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }
    env.update({k: os.environ.get(k) for k in PINNED})
    return env


def orbits(command: str, exit_code, out: str) -> int:
    """Converged solutions the command wrote: orbit-distinct rows for multistart."""
    if command == "multistart":
        path = os.path.join(out, "results.csv")
        if not os.path.exists(path):
            return 0
        with open(path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        return sum(1 for row in rows if row.split(",")[1] == "1")
    return int(exit_code == 0 and os.path.exists(os.path.join(out, "solution.chq")))


def check(spec: dict, cli, exit_code, error, out: str):
    """(passed, detail) for one command's outputs, computed with the library."""
    if error is not None:
        return False, "raised " + error.strip().splitlines()[-1]
    if exit_code not in spec["exit_ok"]:
        return False, "exit %s, expected one of %s" % (exit_code, spec["exit_ok"])
    if exit_code != 0:
        return True, "exit %d accepted" % exit_code
    from logchoquard.field import load_field
    from logchoquard.functionals import energy
    from logchoquard.symmetry import is_invariant

    grid, pot, action, cfg, _ = cli.parse_config(spec["config_text"])
    notes = []
    if spec["command"] == "multistart":
        with open(os.path.join(out, "results.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if not rows:
            return False, "results.csv is empty"
        phi = min(float(row.split(",")[2]) for row in rows)
        u = None
    else:
        u = load_field(os.path.join(out, "solution.chq"))
        phi = energy(u, pot, cli.make_kernel_table(grid, cfg.tau_split)).phi
    ok = True
    if spec.get("phi_ref") is not None:
        rel = abs(phi - spec["phi_ref"]) / abs(spec["phi_ref"])
        ok = rel <= spec["phi_rel_tol"]
        notes.append("phi=%.12g ref=%.12g rel=%.3g tol=%.3g" % (
            phi, spec["phi_ref"], rel, spec["phi_rel_tol"]))
    if spec.get("invariance_tol") is not None:
        cert = is_invariant(u, action)
        ok = ok and cert.sign_changing and cert.defect <= spec["invariance_tol"]
        notes.append("sign_changing=%s invariance_defect=%.3g tol=%.3g" % (
            cert.sign_changing, cert.defect, spec["invariance_tol"]))
    return ok, "; ".join(notes) or "exit 0"


def sha256s(out: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".chq"):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload spec JSON written by run.py")
    ap.add_argument("--out", required=True, help="output directory of the command")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    args = ap.parse_args(argv)

    for key, val in PINNED.items():
        if os.environ.get(key) != val:
            sys.exit("worker: %s must be %s before numpy loads" % (key, val))
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    t0 = perf_counter()
    import logchoquard.cli as cli

    t_import = perf_counter()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit("worker: imported %s, not the package under %s" % (cli.__file__, SRC))
    threads = blas_threads()
    if threads not in (None, 1):
        sys.exit("worker: OpenBLAS runs %d threads despite the pinned environment" % threads)

    rec = Recorder(spans=args.trace, stop_after_setup=args.setup_only)
    exit_code = None
    error = None
    with installed(rec) as sites:
        t_main = perf_counter()
        try:
            exit_code = cli.main([spec["command"], "--config", spec["config_path"], "--out", args.out])
        except SetupDone:
            pass
        except Exception:  # a crash of the program is a failed run, not a harness error
            error = traceback.format_exc()
        t_end = perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": None if rec.setup_end is None else (t_import - t0) + (rec.setup_end - t_main),
        "env": environment(threads),
    }
    if not args.setup_only:
        try:
            passed, detail = check(spec, cli, exit_code, error, args.out)
        except Exception:  # unreadable or inconsistent outputs fail the run
            passed, detail = False, "check raised " + traceback.format_exc().strip().splitlines()[-1]
        result.update(
            {
                "solve_s": None if rec.setup_end is None else t_end - rec.setup_end,
                "exit": exit_code,
                "error": error,
                "peak_rss_mb": rss_mb,
                "descents": dict(rec.outcomes),
                "descent_iters": rec.counts["solver.descend.iters"],
                "orbits": orbits(spec["command"], exit_code, args.out),
                "passed": passed,
                "detail": detail,
                "sha256": sha256s(args.out) if os.path.isdir(args.out) else {},
            }
        )
        if args.trace:
            result["layers"] = layer_metrics(rec)
            result["sites"] = sites
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
