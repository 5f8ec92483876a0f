"""The job-bus wire contract: how pending ``AttackJob``s reach workers.

The :class:`~repro.experiments.runner.ExperimentRunner` plans a grid,
dedupes it against its caches, and either executes the surviving
*unique* jobs itself (``--jobs 0/1``) or hands them to a
:class:`~repro.bus.socketbus.SocketBus`: a ``repro serve`` endpoint
embedded in the coordinator, whose workers are forked from it
(``--jobs N``, see :mod:`repro.bus.fleet`) or connect from outside
with ``repro worker --serve-addr`` (``--bus-addr``).

The exchange format is the runner's scheduler boundary:
a job travels as ``{store_key, circuit payload, config dict}`` and a
result is exactly the encoded attack artifact the store persists — no
worker ever ships live library objects, so every topology is
bit-identical to serial execution by construction.  A worker computes
under the OpenBLAS pool ``import repro`` pinned (``REPRO_BLAS_THREADS``,
default 1), the same pool as a serial run; a forked member inherits its
coordinator's.  Nothing on the bus re-caps it.

The requeue budget is the :class:`RetryPolicy`'s ``max_attempts``
(default 3), and the fail-over deadline is :data:`DEFAULT_LIVENESS`.
The CLI fixes both; library callers set them with ``SocketBus(retry=,
liveness=)``.
"""

from __future__ import annotations

from repro import knobs
from repro.errors import ReproError
from repro.faults.retry import RetryPolicy

__all__ = [
    "BUS_MESSAGE_KIND",
    "DEFAULT_LIVENESS",
    "JOB_ARTIFACT_KINDS",
    "BusError",
    "RetryPolicy",
    "decode_job",
    "encode_job",
    "job_artifact_kind",
]

#: Codec ``kind`` tag of a wire frame — a blob of another flavour raises
#: :class:`~repro.store.codec.CodecError` instead of misdecoding.
BUS_MESSAGE_KIND = "bus-message"

#: Coordinator / worker poll interval (seconds).
DEFAULT_POLL = 0.25
#: Graceful-degradation deadline: a distributed bus that makes no
#: progress — no completions and no executing worker connections —
#: for this long fails its remaining jobs over to in-process execution
#: instead of hanging a figure run on a dead worker fleet.  ``timeout``
#: (raise) still wins when set tighter; 0/None disables fail-over.
DEFAULT_LIVENESS = 300.0


class BusError(ReproError):
    """A job bus could not deliver a result (quarantine, timeout, wire)."""


# ---------------------------------------------------------------------------
# Job payloads — the wire shape of a job
# ---------------------------------------------------------------------------
#: ``job.kind`` → store kind the finished artifact lands under.  Workers
#: use this to warm-skip and publish without decoding the job first.
JOB_ARTIFACT_KINDS = {"attack": "attacks", "baseline": "baselines"}


def job_artifact_kind(kind: str) -> str:
    """Store kind for a job-kind tag (``"attack"`` for legacy payloads)."""
    try:
        return JOB_ARTIFACT_KINDS[kind]
    except KeyError:
        raise BusError(
            f"unknown job kind {kind!r}; choose from "
            f"{sorted(JOB_ARTIFACT_KINDS)}"
        )


def encode_job(job) -> dict:
    """Codec-safe payload of one job (no live dataclasses cross hosts).

    ``kind`` dispatches :func:`decode_job`; payloads written before the
    field existed decode as MuxLink attack jobs.  The config travels as
    its shipped fields only (:func:`repro.knobs.shipped`): an ``exec``
    field such as a checkpoint path is local to the submitting host and
    never reaches a server or worker.  Baseline jobs additionally carry
    the encoded training locks (SWEEP's corpus, keys included — the
    exchange format is store payloads all the way down).
    """
    payload = {
        "kind": job.kind,
        "store_key": job.store_key,
        "circuit": job.circuit,
        "config": knobs.values(job.config, knobs.shipped),
    }
    if payload["kind"] == "baseline":
        payload["train"] = list(job.train)
    return payload


def _field_problems(cls, fields) -> list[str]:
    """Every way *fields* is not exactly the shipped fields of config
    class *cls*, nested configs included."""
    what = cls.__name__
    if not isinstance(fields, dict):
        return [f"{what} is a {type(fields).__name__}, not a mapping"]
    shipped = knobs.shipped(cls)
    expected = {name for name, _ in shipped}
    problems = [
        f"unknown {what} field {name!r}" for name in sorted(set(fields) - expected)
    ] + [
        f"missing {what} field {name!r}" for name in sorted(expected - set(fields))
    ]
    for name, nested in shipped:
        if nested is not None and name in fields:
            problems += _field_problems(nested, fields[name])
    return problems


def _build(cls, fields: dict):
    """Config class *cls* from its checked shipped *fields*; every
    ``exec`` field takes its default."""
    return cls(
        **{
            name: _build(nested, fields[name]) if nested else fields[name]
            for name, nested in knobs.shipped(cls)
        }
    )


def decode_job(payload: dict):
    """Inverse of :func:`encode_job`.

    Raises :class:`BusError` naming every unknown or missing config
    field — an ``exec`` field is unknown, so no host path from another
    host is ever honoured.  A payload encoded by another version of the
    code fails here, once, rather than as a ``TypeError`` in every worker
    attempt, or with a missing field silently taking its default.
    """
    if not isinstance(payload, dict):
        raise BusError(f"undecodable job: a {type(payload).__name__}")
    absent = [n for n in ("store_key", "circuit", "config") if n not in payload]
    if absent:
        raise BusError(f"undecodable job: missing {', '.join(absent)}")
    kind = payload.get("kind", "attack")
    if kind == "baseline":
        from repro.attacks.baseline import BaselineConfig as config_class
    elif kind == "attack":
        from repro.core import MuxLinkConfig as config_class
    else:
        raise BusError(f"unknown job kind {kind!r} in payload")
    problems = _field_problems(config_class, payload["config"])
    if problems:
        raise BusError(
            f"undecodable job ({'; '.join(problems)}); was it encoded by "
            "another version of repro?"
        )
    from repro.experiments.runner import AttackJob, BaselineJob

    try:
        config = _build(config_class, payload["config"])
        if kind == "baseline":
            return BaselineJob(
                store_key=payload["store_key"],
                circuit=payload["circuit"],
                config=config,
                train=tuple(payload.get("train") or ()),
            )
        return AttackJob(
            store_key=payload["store_key"],
            circuit=payload["circuit"],
            config=config,
        )
    except (ReproError, TypeError, ValueError) as exc:
        raise BusError(f"undecodable job: {exc}") from exc
