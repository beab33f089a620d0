"""The package's C code as one shared library, loaded through ctypes.

Every C source of the package is compiled on first use with the system C
compiler into one library.  march.c holds the two heap loops: march() of
grid.march (the Fast-Marching pass of fmm_solve and eikonal_solve, with
the one local update grid.quadrant_update), and the label-setting loop of
graph._label_setting, which label() runs for dijkstra_solve, dial_solve and
solve_v0, and distance_mix() once per call node for graph.distance_mix (the
travel times of idle.expected_response_times).  scan.c holds the two
graph-file passes of io: scan(), which reads a file in one pass, its
numbers where they stand, a decimal of at most 19 significant digits and an
exponent within +-19 into the nearest double by exact integer arithmetic,
and assemble(), which turns a graph file's rows into its CSR problem.
csv.c holds csv_rows(), the CSV writer of io's numeric tables, which finds
repr's shortest digits the same way.  scan.c and csv.c use unsigned
__int128 (gcc or clang on a 64-bit target; elsewhere the build fails and
everything falls back as below).  The library is cached under
$XDG_CACHE_HOME (default ~/.cache)/randterm/<sha256 of the sources and
flags>/native.so.  Nothing is built or loaded at import.  Without a
compiler, when a source cannot be read, when the build fails or when the
cache is not writable, library() returns None and logs one warning on the
"randterm" logger; the callers then run their Python twins, which give the
same results.
"""

from __future__ import annotations

import functools
import os

import numpy as np

# -O2 without -ffast-math, and the flag march.c explains, keep every IEEE
# operation of the compiled loops equal to the Python ones.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCES = ("march.c", "scan.c", "csv.c")


def _build(sources, lib):
    """Compile sources into the shared library lib; None, or why it failed."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return "no C compiler (cc or gcc) found"
    try:
        os.makedirs(os.path.dirname(lib), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(lib))
        os.close(fd)
    except OSError as exc:
        return "cache directory is not writable (%s)" % exc
    try:
        try:
            run = subprocess.run([cc, *_CFLAGS, "-o", tmp, *sources, "-lm"],
                                 capture_output=True, text=True)
        except OSError as exc:
            return "cannot run %s (%s)" % (cc, exc)
        if run.returncode != 0:
            return "compile error: %s" % run.stderr.strip()
        # a finished file renamed into place: a concurrent process never
        # loads a half-written library
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return None


@functools.cache
def library():
    """The package's C sources as one ctypes library, built on first use
    (see the module docstring); None, with one warning on the "randterm"
    logger, when it cannot be built or loaded."""
    import ctypes
    import hashlib
    import logging  # here, not at import: it adds 5 ms to every start-up

    here = os.path.dirname(__file__)
    sources = [os.path.join(here, name) for name in _SOURCES]
    key = hashlib.sha256(" ".join(_CFLAGS).encode())
    try:
        for source in sources:
            with open(source, "rb") as fh:
                key.update(fh.read())
    except OSError as exc:  # e.g. a package installed without its sources
        why = "cannot read a C source (%s)" % exc
    else:
        cache = (os.environ.get("XDG_CACHE_HOME")
                 or os.path.join(os.path.expanduser("~"), ".cache"))
        lib = os.path.join(cache, "randterm", key.hexdigest(), "native.so")
        why = None if os.path.exists(lib) else _build(sources, lib)
    if why is None:
        try:
            dll = ctypes.CDLL(lib)
        except OSError as exc:
            why = "cannot load %s (%s)" % (lib, exc)
    if why is not None:
        logging.getLogger("randterm").warning(
            "compiled code unavailable, using the Python twins: %s", why)
        return None
    i64, f64 = ctypes.c_int64, ctypes.c_double
    arr = functools.partial(np.ctypeslib.ndpointer, flags="C_CONTIGUOUS")
    for name, restype, argtypes in (
            ("march", i64,
             [i64, i64, arr(np.float64), arr(np.int64), i64, arr(np.uint8),
              arr(np.int32), f64, *[arr(np.float64), i64] * 4]),
            ("label", i64,
             [i64, *[arr(np.int64)] * 2, *[arr(np.float64)] * 2,
              arr(np.int64), i64, f64, f64, arr(np.float64), arr(np.int64)]),
            ("distance_mix", i64,
             [i64, *[arr(np.int64)] * 2, *[arr(np.float64)] * 2,
              arr(np.int64), arr(np.float64), i64, arr(np.float64)]),
            ("scan", i64,
             [ctypes.c_char_p, i64, ctypes.c_char_p, ctypes.c_char_p,
              ctypes.c_int, i64, i64, *[arr(np.int64)] * 3,
              *[arr(np.float64)] * 2, arr(np.uint8), arr(np.int64),
              arr(np.float64)]),
            ("assemble", i64,
             [i64, i64, *[arr(np.int64)] * 2, *[arr(np.float64)] * 2,
              arr(np.uint8), ctypes.c_int, f64, *[arr(np.int64)] * 2,
              *[arr(np.float64)] * 3]),
            ("csv_rows", i64,
             [arr(np.float64), i64, i64, arr(np.uint8), ctypes.c_char_p,
              arr(np.int64), i64, arr(np.uint8)])):
        getattr(dll, name).restype = restype
        getattr(dll, name).argtypes = argtypes
    return dll
