"""The thread count of numpy's bundled OpenBLAS, read and pinned through ctypes.

OpenBLAS splits dot products and matrix products across its threads, and
the split changes how the partial sums round: the same run gives other
bytes under another thread count. The command line pins every loaded
OpenBLAS to one thread before any work (cli.main); a library caller that
wants the same bytes everywhere calls pin_blas_threads itself. The
libraries are found in /proc/self/maps, so on a system without it, or
with another BLAS, nothing is pinned and blas_threads returns None.
"""

from __future__ import annotations

import ctypes

_SUFFIXES = ("64_", "")  # the ILP64 build numpy bundles, then a plain one
_PREFIXES = ("scipy_openblas_", "openblas_")


def _openblas_functions(verb: str):
    """<prefix><verb>_num_threads<suffix> of each loaded OpenBLAS that has one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    names = [pre + verb + "_num_threads" + suf for pre in _PREFIXES for suf in _SUFFIXES]
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                found.append(getattr(lib, name))
                break
    return found


def blas_threads():
    """The most threads a loaded OpenBLAS will use, or None if none has a known query."""
    counts = []
    for get in _openblas_functions("get"):
        get.argtypes, get.restype = [], ctypes.c_int
        counts.append(int(get()))
    return max(counts, default=None)


def pin_blas_threads() -> None:
    """Set every loaded OpenBLAS that has a known setter to one thread."""
    for set_threads in _openblas_functions("set"):
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
