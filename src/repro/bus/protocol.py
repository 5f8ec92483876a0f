"""The pluggable job-bus seam: how pending ``AttackJob``s reach workers.

The :class:`~repro.experiments.runner.ExperimentRunner` plans a grid,
dedupes it against its caches, and hands the surviving *unique* jobs to a
:class:`JobBus`.  The bus decides **where** they execute:

* :class:`~repro.bus.local.LocalBus` — this process (serial) or a
  ``ProcessPoolExecutor`` on this host.  The behavior-preserving default.
* :class:`~repro.bus.socketbus.SocketBus` — a ``repro serve`` endpoint
  embedded in the coordinator; workers connect with ``repro worker
  --serve-addr``.

The exchange format is fixed by the scheduler boundary PR 5 built:
a job travels as ``{store_key, circuit payload, config dict}`` and a
result is exactly the encoded attack artifact the store persists — no
backend ever ships live library objects, so every backend is
bit-identical to serial execution by construction.

A bus is a generator factory: :meth:`JobBus.run` yields
``(job, artifact_payload)`` pairs as jobs finish, in completion order;
the runner writes each artifact through to its store.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import ReproError
from repro.faults.retry import RetryPolicy
from repro.settings import setting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.runner import AttackJob

__all__ = [
    "BUS_MESSAGE_KIND",
    "DEFAULT_LIVENESS",
    "DEFAULT_PIPELINE",
    "DEFAULT_WORKER_BLAS_THREADS",
    "JOB_ARTIFACT_KINDS",
    "BusError",
    "BusStats",
    "JobBus",
    "RetryPolicy",
    "decode_job",
    "encode_job",
    "job_artifact_kind",
    "resolve_bus",
]

#: Codec ``kind`` tag of a wire frame — a blob of another flavour raises
#: :class:`~repro.store.codec.CodecError` instead of misdecoding.
BUS_MESSAGE_KIND = "bus-message"

#: Requeue budget: attempt N of a job that has already failed or lost
#: its worker ``N >= DEFAULT_MAX_ATTEMPTS`` times is failed for good.
DEFAULT_MAX_ATTEMPTS = 3
#: Coordinator / worker poll interval (seconds).
DEFAULT_POLL = 0.25
#: Graceful-degradation deadline: a distributed bus that makes no
#: progress — no completions and no executing worker connections —
#: for this long fails its remaining jobs over to in-process execution
#: instead of hanging a figure run on a dead worker fleet.  ``timeout``
#: (raise) still wins when set tighter; 0/None disables fail-over.
DEFAULT_LIVENESS = 300.0
#: Local pool workers cap their OpenBLAS pool at this many threads.  The
#: attack jobs are single-core (pinning BLAS to 1 thread leaves serial
#: runtime unchanged — measured in BENCH_training.json ``bench_bus``),
#: while concurrent workers each waking a cores-wide spin pool double
#: per-job wall-clock.
DEFAULT_WORKER_BLAS_THREADS = 1
#: Jobs a serve worker keeps in flight on its persistent connection.
#: The worker executes serially; a depth of 2 means the next job is
#: already buffered in the socket when the current one finishes, hiding
#: the dispatch round-trip entirely.
DEFAULT_PIPELINE = 2


class BusError(ReproError):
    """A job bus could not deliver a result (quarantine, timeout, wire)."""


@dataclass
class BusStats:
    """Coordinator-side counters, mirrored into CI job summaries.

    ``adopt_seconds`` / ``submit_seconds`` measure pure bus overhead —
    encoding + enqueueing and collecting results — never worker compute,
    which is what ``benchmarks/bench_bus.py`` records per job.
    """

    submitted: int = 0
    completed: int = 0
    requeues: int = 0
    quarantined: int = 0
    failed_over: int = 0
    submit_seconds: float = 0.0
    adopt_seconds: float = 0.0

    def summary(self) -> str:
        text = (
            f"jobs={self.submitted} completed={self.completed} "
            f"requeues={self.requeues} quarantined={self.quarantined}"
        )
        if self.failed_over:
            # Only when nonzero: clean-run summaries keep their exact
            # shape for the transcript parity gates.
            text += f" failed-over={self.failed_over}"
        if self.completed:
            overhead = (
                (self.submit_seconds + self.adopt_seconds)
                / self.completed
                * 1000.0
            )
            text += f" bus-overhead={overhead:.1f}ms/job"
        return text


class JobBus:
    """Abstract transport executing :class:`AttackJob`s somewhere.

    Subclasses implement :meth:`run`; :meth:`close` frees whatever the
    backend holds (worker pool, listening socket).  A bus instance
    is reused across every ``runner.run()`` wave of a figure session.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.stats = BusStats()

    def run(
        self, jobs: "list[AttackJob]"
    ) -> "Iterator[tuple[AttackJob, dict]]":
        """Execute *jobs*; yield ``(job, artifact_payload)``.

        Results arrive in completion order.  A terminally failed job
        raises :class:`BusError` (after surviving results have been
        yielded, where the backend can manage it).
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Free backend resources (idempotent)."""


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
    field existed decode as MuxLink attack jobs.  Baseline jobs addi-
    tionally carry the encoded training locks (SWEEP's corpus, keys
    included — the exchange format is store payloads all the way down).
    """
    payload = {
        "kind": getattr(job, "kind", "attack"),
        "store_key": job.store_key,
        "circuit": job.circuit,
        "config": dataclasses.asdict(job.config),
    }
    if payload["kind"] == "baseline":
        payload["train"] = list(job.train)
    return payload


def _field_problems(cls, fields, what: str) -> list[str]:
    """Every way *fields* is not exactly the fields of dataclass *cls*."""
    if not isinstance(fields, dict):
        return [f"{what} is a {type(fields).__name__}, not a mapping"]
    expected = {f.name for f in dataclasses.fields(cls)}
    return [
        f"unknown {what} field {name!r}" for name in sorted(set(fields) - expected)
    ] + [
        f"missing {what} field {name!r}" for name in sorted(expected - set(fields))
    ]


def decode_job(payload: dict):
    """Inverse of :func:`encode_job`.

    Raises :class:`BusError` naming every unknown or missing config field.
    Jobs carry ``dataclasses.asdict`` of their config, so a payload
    encoded by another version of the code fails here, once, rather than
    as a ``TypeError`` in every worker attempt, or with a missing field
    silently taking its default.
    """
    if not isinstance(payload, dict):
        raise BusError(f"undecodable job: a {type(payload).__name__}")
    absent = [n for n in ("store_key", "circuit", "config") if n not in payload]
    if absent:
        raise BusError(f"undecodable job: missing {', '.join(absent)}")
    kind = payload.get("kind", "attack")
    config = payload["config"]
    if kind == "baseline":
        from repro.attacks.baseline import BaselineConfig
        from repro.experiments.runner import BaselineJob

        problems = _field_problems(BaselineConfig, config, "BaselineConfig")
    elif kind == "attack":
        from repro.core import MuxLinkConfig
        from repro.experiments.runner import AttackJob
        from repro.linkpred import TrainConfig

        problems = _field_problems(MuxLinkConfig, config, "MuxLinkConfig")
        if isinstance(config, dict) and "train" in config:
            problems += _field_problems(
                TrainConfig, config["train"], "TrainConfig"
            )
    else:
        raise BusError(f"unknown job kind {kind!r} in payload")
    if problems:
        raise BusError(
            f"undecodable job ({'; '.join(problems)}); was it encoded by "
            "another version of repro?"
        )
    try:
        if kind == "baseline":
            return BaselineJob(
                store_key=payload["store_key"],
                circuit=payload["circuit"],
                config=BaselineConfig(**config),
                train=tuple(payload.get("train") or ()),
            )
        return AttackJob(
            store_key=payload["store_key"],
            circuit=payload["circuit"],
            config=MuxLinkConfig(
                **{**config, "train": TrainConfig(**config["train"])}
            ),
        )
    except (ReproError, TypeError, ValueError) as exc:
        raise BusError(f"undecodable job: {exc}") from exc


# ---------------------------------------------------------------------------
# Resolution — one scheme for the CLI, the runner and the benches
# ---------------------------------------------------------------------------
def resolve_bus(
    bus: "JobBus | str | None" = None,
    *,
    jobs: int = 0,
    bus_addr: str | None = None,
    poll: float = DEFAULT_POLL,
    max_attempts: int | None = None,
    timeout: float | None = None,
    liveness: float | None = None,
    retry: "RetryPolicy | None" = None,
) -> "JobBus":
    """Build the configured bus backend.

    *bus* is a backend name (``local`` / ``socket``), an existing
    :class:`JobBus` (passed through), or ``None`` — the ``REPRO_BUS``
    setting (:mod:`repro.settings`, default ``local``).  ``socket``
    binds *bus_addr* (else ``REPRO_BUS_ADDR``, default an ephemeral
    localhost port).

    *liveness* is the graceful-degradation deadline (seconds of total
    silence before remaining jobs fail over to in-process execution;
    ``None`` means :data:`DEFAULT_LIVENESS`, ``0`` disables).  *retry*
    carries the socket bus's backoff/timeout policy.
    """
    if isinstance(bus, JobBus):
        return bus
    name = setting("REPRO_BUS", bus).strip().lower()
    retry = RetryPolicy() if retry is None else retry
    if liveness is None:
        liveness = DEFAULT_LIVENESS
    if name == "local":
        from repro.bus.local import LocalBus

        return LocalBus(jobs=jobs)
    if name == "socket":
        from repro.bus.socketbus import SocketBus

        return SocketBus(
            setting("REPRO_BUS_ADDR", bus_addr),
            poll=poll,
            max_attempts=max_attempts,
            timeout=timeout,
            liveness=liveness,
            retry=retry,
        )
    raise BusError(f"unknown job bus {name!r}; choose from local, socket")

