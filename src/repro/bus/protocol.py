"""The pluggable job-bus seam: how pending ``AttackJob``s reach workers.

The :class:`~repro.experiments.runner.ExperimentRunner` plans a grid,
dedupes it against its caches, and hands the surviving *unique* jobs to a
:class:`JobBus`.  The bus decides **where** they execute:

* :class:`~repro.bus.local.LocalBus` — this process (serial) or a
  ``ProcessPoolExecutor`` on this host.  The behavior-preserving default.
* :class:`~repro.bus.spool.SpoolBus` — a filesystem spool directory
  shared with N independent ``repro worker`` processes (any host that
  mounts the directory and the artifact store).
* :class:`~repro.bus.socketbus.SocketBus` — a ``repro serve`` endpoint
  embedded in the coordinator; workers connect with ``repro worker
  --serve-addr``.

The exchange format is fixed by the scheduler boundary PR 5 built:
a job travels as ``{store_key, circuit payload, config dict}`` and a
result is exactly the encoded attack artifact the store persists — no
backend ever ships live library objects, so every backend is
bit-identical to serial execution by construction.

A bus is a generator factory: :meth:`JobBus.run` yields
``(job, artifact_payload, persisted)`` tuples as jobs finish, in
completion order.  ``persisted`` tells the runner whether the artifact
already landed in the shared store (spool workers write it there
themselves) or still needs a write-through.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import ReproError
from repro.faults.retry import RetryPolicy
from repro.settings import setting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.runner import AttackJob
    from repro.store import ArtifactStore

__all__ = [
    "BUS_JOB_KIND",
    "BUS_MESSAGE_KIND",
    "BUS_QUARANTINE_KIND",
    "DEFAULT_LEASE_BATCH",
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

#: Codec ``kind`` tags — a spool file or wire frame of the wrong flavour
#: raises :class:`~repro.store.codec.CodecError` instead of misdecoding.
BUS_JOB_KIND = "bus-job"
BUS_QUARANTINE_KIND = "bus-quarantine"
BUS_MESSAGE_KIND = "bus-message"

#: A lease with no heartbeat for this many seconds is presumed dead and
#: returns to pending (the holder was SIGKILLed / lost power / vanished).
DEFAULT_STALE_AFTER = 30.0
#: Requeue budget: attempt N of a job that has already failed or expired
#: ``N >= DEFAULT_MAX_ATTEMPTS`` times is quarantined instead of retried.
DEFAULT_MAX_ATTEMPTS = 3
#: Coordinator / worker poll interval (seconds).
DEFAULT_POLL = 0.25
#: Graceful-degradation deadline: a distributed bus that makes no
#: progress — no completions, no live leases, no executing connections —
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
#: How many leases a spool worker claims per directory scan.  1 keeps
#: the PR-9 chaos-drill semantics (one held lease, one heartbeat); the
#: spool bench raises it to amortize the sorted-scan cost on small jobs.
DEFAULT_LEASE_BATCH = 1
#: Jobs a serve worker keeps in flight on its persistent connection.
#: The worker executes serially; a depth of 2 means the next job is
#: already buffered in the socket when the current one finishes, hiding
#: the scheduler round-trip entirely.
DEFAULT_PIPELINE = 2


class BusError(ReproError):
    """A job bus could not deliver a result (quarantine, timeout, wire)."""


@dataclass
class BusStats:
    """Coordinator-side counters, mirrored into CI job summaries.

    ``adopt_seconds`` / ``submit_seconds`` measure pure bus overhead —
    encoding + enqueueing and polling + decoding — never worker compute,
    which is what ``benchmarks/bench_bus.py`` records per job.
    """

    submitted: int = 0
    completed: int = 0
    adopted: int = 0
    requeues: int = 0
    quarantined: int = 0
    failed_over: int = 0
    submit_seconds: float = 0.0
    adopt_seconds: float = 0.0

    def summary(self) -> str:
        text = (
            f"jobs={self.submitted} completed={self.completed} "
            f"(+{self.adopted} adopted from store) "
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

    Subclasses implement :meth:`run`; :meth:`close` releases whatever
    the backend holds (worker pool, listening socket).  A bus instance
    is reused across every ``runner.run()`` wave of a figure session.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.stats = BusStats()

    def run(
        self, jobs: "list[AttackJob]"
    ) -> "Iterator[tuple[AttackJob, dict, bool]]":
        """Execute *jobs*; yield ``(job, artifact_payload, persisted)``.

        Results arrive in completion order.  A terminally failed job
        raises :class:`BusError` (after surviving results have been
        yielded, where the backend can manage it).
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release backend resources (idempotent)."""

    def _failover(
        self, jobs: "list[AttackJob]", reason: str, log=print
    ) -> "Iterator[tuple[AttackJob, dict, bool]]":
        """Graceful degradation: execute *jobs* in this process.

        The distributed backends call this when their liveness deadline
        expires with no sign of a worker fleet — the grid finishes on
        the coordinator (slowly, serially) instead of hanging forever.
        Yields the same ``(job, payload, persisted=False)`` tuples as a
        live bus, so the runner's write-through path persists results
        exactly as if a worker had returned them.
        """
        from repro.experiments.runner import execute_job

        log(
            f"bus[{self.name}]: {reason} — failing {len(jobs)} job(s) "
            "over to in-process execution"
        )
        for job in jobs:
            payload = execute_job(job)
            self.stats.completed += 1
            self.stats.failed_over += 1
            yield job, payload, False


# ---------------------------------------------------------------------------
# Job payloads — the spool-file / wire shape of a job
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
    store: "ArtifactStore | None" = None,
    bus_dir: "str | os.PathLike | None" = None,
    bus_addr: str | None = None,
    poll: float = DEFAULT_POLL,
    stale_after: float = DEFAULT_STALE_AFTER,
    max_attempts: int | None = None,
    timeout: float | None = None,
    liveness: float | None = None,
    retry: "RetryPolicy | None" = None,
) -> "JobBus":
    """Build the configured bus backend.

    *bus* is a backend name (``local`` / ``spool`` / ``socket``), an
    existing :class:`JobBus` (passed through), or ``None`` — the
    ``REPRO_BUS`` setting (:mod:`repro.settings`, default ``local``).
    ``spool`` needs a directory (*bus_dir*, else ``REPRO_BUS_DIR``)
    **and** a shared artifact store (results travel through it);
    ``socket`` binds *bus_addr* (else ``REPRO_BUS_ADDR``, default an
    ephemeral localhost port).

    *liveness* is the graceful-degradation deadline (seconds of total
    silence before remaining jobs fail over to in-process execution;
    ``None`` means :data:`DEFAULT_LIVENESS`, ``0`` disables).  *retry*
    carries the backoff/timeout policy the distributed backends share.
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
    if name == "spool":
        from repro.bus.spool import SpoolBus, SpoolDir

        bus_dir = setting("REPRO_BUS_DIR", bus_dir)
        if not bus_dir:
            raise BusError(
                "spool bus needs a directory: pass --bus-dir or set "
                "REPRO_BUS_DIR"
            )
        if store is None:
            raise BusError(
                "spool bus needs a shared artifact store (results travel "
                "through it): pass --store or set REPRO_STORE"
            )
        spool = SpoolDir(
            bus_dir,
            stale_after=stale_after,
            max_attempts=(
                retry.max_attempts if max_attempts is None else max_attempts
            ),
        )
        return SpoolBus(
            spool,
            store,
            poll=poll,
            timeout=timeout,
            liveness=liveness,
            retry=retry,
        )
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
    raise BusError(
        f"unknown job bus {name!r}; choose from local, spool, socket"
    )


@dataclass
class QuarantinedJob:
    """One poisoned job, as surfaced by ``SpoolDir.quarantined()``."""

    key: str
    attempts: int
    traceback: str
    payload: dict = field(repr=False, default_factory=dict)
