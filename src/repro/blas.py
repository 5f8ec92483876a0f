"""Best-effort BLAS thread capping.

``import repro`` pins OpenBLAS to one thread (see :mod:`repro`): the pool
size changes floating-point summation order, and every backend is held
to bit-identity.  That pin is the only cap: bus workers compute under
the pool they imported or, forked, inherited.  The default of one thread
also keeps a fleet from oversubscribing its host: OpenBLAS wakes its
whole spin-waiting thread pool on every kernel call; four bus workers
doing it concurrently on a 24-core host means ~96 spinning threads
fighting for 24 cores, and the measured per-job wall-clock **doubles**
(see ``benchmarks/bench_bus.py`` history in ``BENCH_training.json``).
The attack jobs themselves are single-core, so BLAS parallelism buys
them nothing.

``threadpoolctl`` is the canonical tool for this but is not a repro
dependency; this module does the one narrow thing we need with ctypes
against whichever OpenBLAS numpy already loaded, so call it after
numpy is imported.  It is a leaf module (stdlib only), so the pin at
``import repro`` does not load the job bus.  Everything is best-effort:
on a host without a discoverable OpenBLAS (MKL builds, non-Linux without
/proc) it silently does nothing, which only costs the oversubscription
margin, never correctness.
"""

from __future__ import annotations

import ctypes
import os
import pathlib

#: set_num_threads entry points across OpenBLAS builds, most specific
#: first (scipy-openblas wheels prefix and suffix the classic name).
_SET_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _candidate_libraries() -> list[str]:
    """Paths of BLAS shared objects already mapped into this process."""
    seen: list[str] = []
    try:
        with open(f"/proc/{os.getpid()}/maps") as maps:
            for line in maps:
                path = line.split()[-1] if line.split() else ""
                if "blas" in pathlib.PurePath(path).name.lower():
                    if path not in seen:
                        seen.append(path)
    except OSError:
        pass
    return seen


def limit_blas_threads(n: int) -> bool:
    """Cap the loaded OpenBLAS pool at ``n`` threads.

    Returns True if a set_num_threads entry point was found and called,
    False if no controllable BLAS was located (harmless).  ``n <= 0``
    is a no-op by contract — callers use it to mean "leave BLAS alone".
    """
    if n <= 0:
        return False
    for path in _candidate_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SET_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is None:
                continue
            try:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(int(n))
                return True
            except (ctypes.ArgumentError, OSError):  # pragma: no cover
                continue
    return False
