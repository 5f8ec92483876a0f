"""The cold attack path loads numpy and the attack code only, and
``repro.nn`` exports only what the rest of ``repro`` uses.

``repro attack`` runs once per locked netlist in a fresh process, so
everything ``import repro.cli`` pulls in is paid per attack.  The sparse
products need only scipy's ``_sparsetools`` C extension, which
:func:`repro.nn.sparse.load_sparsetools` loads by file path; running
``scipy/sparse/__init__.py`` (and its array-API layer) would add a third
of a second to every attack.  A local attack loads none of the
serving layer (``repro.serve``, ``repro.wire``, ``repro.client`` or
the ``repro.bus`` alias package) and none of the baseline attacks
(``repro.attacks``, ``repro.benchgen.resilience_tests``), with or
without ``--store``; a serial MuxLink figure run loads no baseline
attack either.  These tests
pin that import graph, and that the direct and the fallback loads run
the same kernels bit for bit.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import repro
import repro.nn
import repro.nn.sparse as sparse_module
from repro import load_benchmark, lock_dmux
from repro.gnn import GraphExample, build_batch
from repro.netlist import dump_bench
from repro.nn.sparse import load_sparsetools

COLD_ATTACK = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    import repro.cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = repro.cli.main(
            ["attack", *sys.argv[1:], "--h", "1", "--epochs", "2", "--seed", "1"]
        )
    assert status == 0, status
    loaded = sorted(
        name for name in sys.modules
        if name == "scipy"
        or name.startswith(
            (
                "scipy.",
                "repro.bus",
                "repro.serve",
                "repro.wire",
                "repro.client",
                "repro.attacks",
                "repro.benchgen.resilience_tests",
            )
        )
    )
    assert not loaded, loaded

    import numpy as np
    import scipy.sparse as sp

    import repro.nn.sparse
    from repro.gnn import GraphExample, build_batch

    # Loaded under a private name, never as scipy's own module.
    kernels = repro.nn.sparse._sparsetools
    assert kernels.__name__ == "repro.nn._sparsetools", kernels.__name__
    assert sys.modules["scipy.sparse._sparsetools"] is not kernels

    rng = np.random.default_rng(3)
    examples = []
    for n in (1, 4, 9, 17):
        edges = rng.integers(0, n, size=(2 * n, 2))
        examples.append(GraphExample(n, edges, rng.standard_normal((n, 3))))
    op = build_batch(examples).operator
    matrix = sp.csr_matrix(
        (op.data, op.indices, op.indptr), shape=op.shape
    )
    dense = rng.standard_normal((op.shape[0], 5)).astype(op.data.dtype)
    assert np.array_equal(op.matmul(dense), matrix @ dense)
    assert np.array_equal(op.matmul_t(dense), matrix.T @ dense)
    """
)


SERIAL_FIGURES = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    import repro.cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = repro.cli.main(
            ["figures", "--figures", "7", "8", "--scale", "smoke", "--jobs", "0"]
        )
    assert status == 0, status
    loaded = sorted(name for name in sys.modules if name.startswith("repro.attacks"))
    assert not loaded, loaded
    """
)


def _src_path() -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def _cold_attack(tmp_path, *args: str) -> None:
    locked = lock_dmux(load_benchmark("c1355", scale=0.12), key_size=6, seed=1)
    netlist = tmp_path / "locked.bench"
    dump_bench(locked.circuit, netlist, key=locked.key)
    result = subprocess.run(
        [sys.executable, "-c", COLD_ATTACK, str(netlist), *args],
        env=dict(os.environ, PYTHONPATH=_src_path()),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_cold_attack_imports_neither_scipy_nor_the_bus(tmp_path):
    _cold_attack(tmp_path)


def test_stored_attack_imports_neither_scipy_nor_the_bus(tmp_path):
    """``--store`` runs the attack as a job: cold (trained and stored)
    and warm (read back) it loads no more than a plain attack."""
    store = tmp_path / "store"
    _cold_attack(tmp_path, "--store", str(store))
    written = sorted(store.rglob("*.npz"))
    assert len(written) == 1
    _cold_attack(tmp_path, "--store", str(store))
    assert sorted(store.rglob("*.npz")) == written


def test_serial_muxlink_figures_load_no_baseline_attack(tmp_path):
    """Fig. 7 and 8 build and run MuxLink cells only: the baseline
    attacks are imported when a baseline cell is built, not with the
    runner."""
    result = subprocess.run(
        [sys.executable, "-c", SERIAL_FIGURES],
        env=dict(os.environ, PYTHONPATH=_src_path()),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_failed_direct_load_falls_back_to_scipy_sparse(monkeypatch):
    from scipy.sparse import _sparsetools

    rng = np.random.default_rng(12)
    examples = []
    for n in (1, 5, 12, 30):
        edges = rng.integers(0, n, size=(3 * n, 2))
        examples.append(GraphExample(n, edges, rng.standard_normal((n, 2))))
    op = build_batch(examples).operator
    dense = rng.standard_normal((op.shape[0], 6)).astype(op.data.dtype)
    direct = op.matmul(dense), op.matmul_t(dense)

    def broken_loader(name, path):
        raise ImportError(f"cannot load {path}")

    monkeypatch.setattr(
        sparse_module.importlib.machinery, "ExtensionFileLoader", broken_loader
    )
    assert load_sparsetools() is _sparsetools
    monkeypatch.setattr(sparse_module.importlib.util, "find_spec", lambda name: None)
    assert load_sparsetools() is _sparsetools

    monkeypatch.setattr(sparse_module, "_sparsetools", load_sparsetools())
    assert np.array_equal(op.matmul(dense), direct[0])
    assert np.array_equal(op.matmul_t(dense), direct[1])


#: ``repro.nn`` exports no caller in ``src/`` imports: each one's reason.
TEST_ONLY_EXPORTS = {
    "dtype_scope": "the float64 switch of the gradient-check fixtures",
}

REPO = Path(__file__).resolve().parents[1]


def _names_taken_from(tree: ast.AST, package: str) -> set[str]:
    """Names a module imports from *package* (or its submodules) or reads
    as attributes of it (``import repro.nn as nn; nn.set_default_dtype``)."""
    names: set[str] = set()
    prefixes = {package}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == package or node.module.startswith(package + ".")
        ):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            prefixes.update(
                alias.asname for alias in node.names
                if alias.name == package and alias.asname
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in prefixes:
            names.add(node.attr)
    return names


def test_repro_nn_exports_only_names_repro_uses():
    """Every name in ``repro.nn.__all__`` is imported by ``src/`` outside
    ``repro/nn`` or patched by ``perfbench/spans.py`` (which times the
    DGCNN layers by name), so a dead export cannot grow back."""
    package_dir = REPO / "src" / "repro"
    sources = [
        path for path in package_dir.rglob("*.py")
        if package_dir / "nn" not in path.parents
    ]
    used: set[str] = set()
    for path in sources + [REPO / "perfbench" / "spans.py"]:
        used |= _names_taken_from(ast.parse(path.read_text()), "repro.nn")
    # Equality, not inclusion: a tolerated name that gains a caller (or
    # leaves __all__) must leave TEST_ONLY_EXPORTS too.
    assert set(repro.nn.__all__) - used == set(TEST_ONLY_EXPORTS)
