"""Two process settings made through ctypes: OpenBLAS threads and glibc's heap.

pin_blas_threads pins numpy's bundled OpenBLAS to one thread, and
keep_freed_memory stops glibc from handing freed memory back to the
kernel. The command line makes both before any work (cli.main); a
library caller calls them itself.

OpenBLAS splits dot products and matrix products across its threads, and
the split changes how the partial sums round: the same run gives other
bytes under another thread count, so a library caller that wants the
same bytes everywhere pins it. The libraries are found in
/proc/self/maps, so on a system without it, or with another BLAS,
nothing is pinned and blas_threads returns None.
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


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> bool:
    """Keep freed heap memory in the process instead of returning it to the kernel.

    A descent frees and reallocates n x n temporaries on every step. By
    default glibc serves the larger ones by mmap and trims the heap on
    free, so each reallocation faults its pages in again. Raising the trim
    threshold to 64 MiB and the mmap threshold to 32 MiB (glibc's largest
    on 64-bit systems) keeps them in the heap for reuse. Returns whether
    both mallopt calls succeeded; does nothing where libc has no mallopt.
    Results do not depend on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no dlopen(NULL), or no mallopt
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    trim = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mmap = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    return trim == 1 and mmap == 1
