"""One declaration per attack knob: what each config field does to a result.

Every field of :class:`~repro.core.MuxLinkConfig` and
:class:`~repro.linkpred.TrainConfig` is declared with :func:`knob`, which
records exactly one role in the field's metadata:

* ``key`` — moves the result, so it is folded into the store address
  (:func:`repro.store.artifacts.config_token`);
* ``post`` — post-processing that a stored result re-applies on every
  hit (the decision ``threshold``, which Fig. 9 sweeps without
  retraining);
* ``exec`` — how this host runs the attack (scoring prefetch,
  checkpoints, progress lines).  It never moves a bit of the result and
  never leaves the host: a job carries only its ``key`` and ``post``
  fields (:func:`repro.wire.encode_job`).

Readers ask for fields by role (:func:`keyed`, :func:`shipped`) rather
than by name, so a new knob is declared once, at its field.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

__all__ = ["EXEC", "KEY", "POST", "ROLES", "keyed", "knob", "role",
           "shipped", "values"]

KEY = "key"
POST = "post"
EXEC = "exec"
ROLES = (KEY, POST, EXEC)


def knob(role: str, default=dataclasses.MISSING, **options) -> dataclasses.Field:
    """A dataclass field declaring its *role*; *options* go to
    :func:`dataclasses.field` (``default_factory``, ...)."""
    return dataclasses.field(default=default, metadata={"role": role}, **options)


def role(field: dataclasses.Field) -> str | None:
    """The role *field* declares; ``None`` when it was not declared with
    :func:`knob`."""
    return field.metadata.get("role")


def _select(cls: type, keep) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name] if dataclasses.is_dataclass(hints[f.name]) else None)
        for f in dataclasses.fields(cls)
        if keep(role(f))
    )


@functools.cache
def keyed(cls: type) -> tuple:
    """``(name, nested config class or None)`` of each ``key`` field of
    config class *cls*, in declaration order."""
    return _select(cls, lambda r: r == KEY)


@functools.cache
def shipped(cls: type) -> tuple:
    """The fields of *cls* a job carries, in the same rows as
    :func:`keyed`: every field but the ``exec`` ones.

    A config class declared without roles (the baseline attacks') ships
    whole.
    """
    return _select(cls, lambda r: r != EXEC)


def values(config, select, pinned: dict | None = None) -> dict:
    """The fields of *config* that *select* (:func:`keyed` or
    :func:`shipped`) returns, a nested config as a dict of its own.

    *pinned* maps a config class name to constants added to its dict.
    """
    out = dict(pinned.get(type(config).__name__, ())) if pinned else {}
    for name, nested in select(type(config)):
        value = getattr(config, name)
        out[name] = values(value, select, pinned) if nested else value
    return out
