"""The settings table: precedence, typed errors, ``repro config``."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.settings import SETTINGS, SettingsError, setting

_PACKAGE = pathlib.Path(repro.__file__).resolve().parent

KEPT = {
    "REPRO_STORE",
    "REPRO_BUS_ADDR",
    "REPRO_SERVE_ADDR",
    "REPRO_JOBS",
    "REPRO_EXPERIMENT_SCALE",
    "REPRO_DTYPE",
    "REPRO_BLAS_THREADS",
    "REPRO_FAULT_PLAN",
}


@pytest.mark.parametrize(
    "name, raw, parsed, explicit",
    [
        ("REPRO_STORE", " /srv/store ", "/srv/store", "/tmp/store"),
        ("REPRO_BUS_ADDR", " 0.0.0.0:7787 ", "0.0.0.0:7787", "127.0.0.1:0"),
        ("REPRO_BLAS_THREADS", "4", 4, 2),
        ("REPRO_JOBS", "3", 3, 5),
    ],
)
def test_explicit_beats_env_beats_default(
    name, raw, parsed, explicit, monkeypatch
):
    monkeypatch.delenv(name, raising=False)
    assert setting(name) == SETTINGS[name].default
    monkeypatch.setenv(name, "  ")  # blank means unset
    assert setting(name) == SETTINGS[name].default
    monkeypatch.setenv(name, raw)
    assert setting(name) == parsed
    assert setting(name, explicit) == explicit
    assert setting(name, "") == parsed  # a blank flag means unset too


@pytest.mark.parametrize(
    "name, raw, accepts",
    [
        ("REPRO_JOBS", "abc", "'auto'"),
        ("REPRO_JOBS", "-1", "non-negative"),
        ("REPRO_BLAS_THREADS", "x", "non-negative integer"),
        ("REPRO_DTYPE", "float16", "float32, float64"),
        ("REPRO_EXPERIMENT_SCALE", "smok", "smoke, ci, paper"),
        ("REPRO_BLAS_THREADS", "-2", "non-negative integer"),
    ],
)
def test_malformed_value_is_a_settings_error(name, raw, accepts, monkeypatch):
    monkeypatch.setenv(name, raw)
    with pytest.raises(SettingsError) as excinfo:
        setting(name)
    assert str(excinfo.value).startswith(f"{name}={raw!r}")
    assert accepts in str(excinfo.value)
    assert isinstance(excinfo.value, repro.errors.ReproError)


def test_repro_config_lists_exactly_the_kept_knobs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "3")
    monkeypatch.delenv("REPRO_BUS_ADDR", raising=False)
    assert main(["config"]) == 0
    rows = {
        line.split()[0]: line.split()[1:3]
        for line in capsys.readouterr().out.splitlines()
    }
    assert set(rows) == KEPT == set(SETTINGS)
    assert rows["REPRO_JOBS"] == ["3", "env"]
    assert rows["REPRO_BUS_ADDR"] == ["-", "default"]  # unset: no bus


def _cli_env(**knobs: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(_PACKAGE.parent)
    env.update(knobs)
    return env


@pytest.mark.parametrize(
    "name, raw, argv",
    [
        ("REPRO_JOBS", "abc", ["--scale", "smoke"]),
        ("REPRO_JOBS", "-1", ["--scale", "smoke"]),
        ("REPRO_JOBS", "1.5", ["--scale", "smoke"]),
        ("REPRO_EXPERIMENT_SCALE", "smok", []),
    ],
)
def test_cli_reports_a_malformed_knob_without_a_traceback(
    name, raw, argv, tmp_path
):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "figures", "--figures", "7"]
        + argv,
        env=_cli_env(**{name: raw}),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {name}="), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "accuracy" not in proc.stdout  # nothing ran at a fallback scale


_ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_only_the_settings_module_reads_the_environment():
    offenders = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        if path == _PACKAGE / "settings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            attribute = isinstance(node, ast.Attribute) and node.attr
            imported = isinstance(node, ast.ImportFrom) and node.module == "os"
            if attribute in _ENV_READS or (
                imported and {a.name for a in node.names} & _ENV_READS
            ):
                offenders.append(f"{path.relative_to(_PACKAGE)}:{node.lineno}")
    assert offenders == [], "read REPRO_* knobs through repro.settings"
