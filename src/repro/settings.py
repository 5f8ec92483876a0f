"""Every environment knob repro reads, declared once.

:data:`SETTINGS` is the whole table: each entry names its variable, the
parser of its text, its default and a one-line doc.  :func:`setting`
resolves a knob — an explicit argument (where a CLI flag arrives), else
the environment, else the default — and nothing else in the package
reads ``os.environ``.  A malformed value raises :class:`SettingsError`
naming the variable and what it accepts; it never falls back silently.
``repro config`` prints the table with the values in effect.

This module imports only the standard library and :mod:`repro.errors`:
``import repro`` reads ``REPRO_BLAS_THREADS`` and ``REPRO_DTYPE``
through it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ReproError

__all__ = [
    "SETTINGS",
    "Setting",
    "SettingsError",
    "parse_jobs",
    "setting",
    "setting_source",
]


class SettingsError(ReproError):
    """An environment knob holds a value its parser rejects."""


@dataclass(frozen=True)
class Setting:
    """One environment knob: its variable, parser, default and meaning.

    *parse* raises ``ValueError`` whose message says what the knob
    accepts; :func:`setting` turns that into a :class:`SettingsError`.
    """

    env: str
    parse: Callable[[str], Any]
    default: Any
    doc: str


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        value = raw.lower()
        if value not in options:
            raise ValueError(f"one of {', '.join(options)}")
        return value

    return parse


def _count(raw: str) -> int:
    if not raw.isdigit():
        raise ValueError("a non-negative integer")
    return int(raw)


def parse_jobs(raw: str) -> int:
    """A worker count: a non-negative integer, or ``auto`` for all cores."""
    if raw.strip().lower() == "auto":
        return os.cpu_count() or 1
    if not raw.strip().isdigit():
        raise ValueError("a non-negative integer or 'auto'")
    return int(raw)


SETTINGS: dict[str, Setting] = {
    knob.env: knob
    for knob in (
        Setting("REPRO_STORE", str, None,
                "artifact store directory"),
        Setting("REPRO_BUS_ADDR", str, None,
                "HOST:PORT a grid's bus listens on for outside workers"),
        Setting("REPRO_SERVE_ADDR", str, None,
                "`repro serve` endpoint a serve-mode worker connects to"),
        Setting("REPRO_JOBS", parse_jobs, 0,
                "worker processes a grid forks (0 or 1 = serial)"),
        Setting("REPRO_EXPERIMENT_SCALE", _choice("smoke", "ci", "paper"),
                "ci", "experiment preset of the figure grids and benches"),
        Setting("REPRO_DTYPE", _choice("float32", "float64"), "float32",
                "numeric runtime dtype (read once at import)"),
        Setting("REPRO_BLAS_THREADS", _count, 1,
                "OpenBLAS pool size pinned at import; 0 leaves BLAS alone"),
        Setting("REPRO_FAULT_PLAN", str, None,
                "fault plan JSON armed in this process (chaos drills)"),
    )
}


def setting(name: str, explicit: Any = None) -> Any:
    """Knob *name*: *explicit*, else the environment, else the default.

    *explicit* is returned as given unless it is ``None`` or a blank
    string.  Only environment text goes through the knob's parser.
    """
    knob = SETTINGS[name]
    blank = isinstance(explicit, str) and not explicit.strip()
    if explicit is not None and not blank:
        return explicit
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default
    try:
        return knob.parse(raw)
    except ValueError as exc:
        raise SettingsError(
            f"{name}={raw!r} is invalid; expected {exc}"
        ) from None


def setting_source(name: str) -> str:
    """Where knob *name*'s value comes from when no flag is given."""
    return "env" if os.environ.get(name, "").strip() else "default"
