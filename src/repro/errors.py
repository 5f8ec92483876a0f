"""Exception hierarchy for the MuxLink reproduction."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NetlistError",
    "BenchFormatError",
    "LockingError",
    "AttackError",
    "SimulationError",
    "TrainingError",
    "ServeError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class NetlistError(ReproError):
    """Structural netlist problem (bad arity, loop, unknown net, ...)."""


class BenchFormatError(ReproError):
    """Malformed BENCH text, or a BENCH file that cannot be read or written."""


class LockingError(ReproError):
    """A locking pass could not be applied (no viable locality, bad key)."""


class AttackError(ReproError):
    """An attack received inputs it cannot process."""


class SimulationError(ReproError):
    """Logic simulation failure."""


class TrainingError(ReproError):
    """GNN training / dataset construction failure."""


class ServeError(ReproError):
    """The serve endpoint refused or could not satisfy a request."""
