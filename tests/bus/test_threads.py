"""BLAS thread capping: found on this host, no-op contract, determinism.

The bit-identity contract of every bus backend rests on all processes
using the *same* OpenBLAS thread count — the pool size changes the
floating-point reduction order.  ``repro`` pins the pool to 1 at import
(``REPRO_BLAS_THREADS`` overrides); these tests cover the primitive,
the pin, and a forked fleet member keeping the pool it inherits.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

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


MEMBER_POOL = textwrap.dedent(
    """
    import ctypes
    import re
    import sys

    import repro.experiments.runner as runner_module
    from repro.blas import _candidate_libraries
    from repro.bus import BusError
    from repro.experiments import SMOKE_SCALE, ExperimentRunner, fig7_cells

    def pool():
        for path in _candidate_libraries():
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if get is not None:
                        get.restype = ctypes.c_int
                        return get()
        print("no-blas")
        sys.exit(0)

    def report(job):
        raise RuntimeError(f"member pool={pool()}")

    # Members are forked after this patch, so their jobs report instead.
    runner_module.execute_job = report
    with ExperimentRunner(jobs=2) as runner:
        try:
            runner.run(fig7_cells(SMOKE_SCALE, seed=0)[:1])
        except BusError as exc:
            member = re.search(r"member pool=(\\d+)", str(exc)).group(1)
    print(f"coordinator={pool()} member={member}")
    """
)


def test_fleet_member_keeps_its_coordinators_blas_pool(tmp_path):
    """The pin at import is the only cap: under ``REPRO_BLAS_THREADS=2`` a
    forked fleet member computes under the coordinator's 2-thread pool."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    env["REPRO_BLAS_THREADS"] = "2"
    result = subprocess.run(
        [sys.executable, "-c", MEMBER_POOL],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    verdict = result.stdout.strip().splitlines()[-1]
    if verdict == "no-blas":
        pytest.skip("no OpenBLAS with a get_num_threads entry point")
    assert verdict == "coordinator=2 member=2"
