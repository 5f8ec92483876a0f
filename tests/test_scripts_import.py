"""Every bench, CI and example script imports against the current library.

The scripts under ``benchmarks/`` and ``ci/`` run only as CI steps, and
those under ``examples/`` only by hand, so a renamed library name, or an
import of a deleted sibling module, would otherwise first fail there.
Each is imported here, not run: its module-level code is imports and
constants, and each example guards its ``main()``.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path
    for folder in ("benchmarks", "ci", "examples")
    for path in (ROOT / folder).glob("*.py")
)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS]
)
def test_script_imports(path, monkeypatch):
    # A script's own folder leads sys.path, as under ``python path``.
    monkeypatch.syspath_prepend(str(path.parent))
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
