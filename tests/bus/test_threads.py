"""BLAS thread capping: found on this host, no-op contract, determinism.

The bit-identity contract of every bus backend rests on all processes
using the *same* OpenBLAS thread count — the pool size changes the
floating-point reduction order.  ``repro`` pins the pool to 1 at import
(``REPRO_BLAS_THREADS`` overrides); these tests cover the primitive.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np

import repro
from repro.bus.threads import _candidate_libraries, limit_blas_threads


def test_noop_contract():
    assert limit_blas_threads(0) is False
    assert limit_blas_threads(-3) is False


def test_caps_the_loaded_openblas():
    # numpy is imported, so its BLAS is mapped into this process.  The
    # pinned container image ships a scipy-openblas numpy; if a future
    # image swaps BLAS implementations the discovery legitimately finds
    # nothing and capping degrades to a no-op.
    if not _candidate_libraries():
        assert limit_blas_threads(1) is False
        return
    assert limit_blas_threads(1) is True


def test_matmul_bit_identical_under_recapping():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((256, 256))
    limit_blas_threads(1)
    one = a @ a
    limit_blas_threads(2)
    limit_blas_threads(1)
    again = a @ a
    assert (one == again).all()


PIN_AT_IMPORT = textwrap.dedent(
    """
    import ctypes
    import sys

    import numpy  # maps numpy's OpenBLAS into the process

    def openblas():
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes = [ctypes.c_int]
                    return get, put
        print("no-blas")
        sys.exit(0)

    get, put = openblas()
    put(2)
    assert get() == 2
    import repro  # noqa: F401  (pins at import)

    assert get() == 1, get()
    assert not [m for m in sys.modules if m.startswith("repro.bus")]
    print("pinned")
    """
)


def test_import_repro_pins_without_loading_the_bus():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BLAS_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PIN_AT_IMPORT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() in ("pinned", "no-blas")
