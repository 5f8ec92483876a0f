"""One job type for every unit of attack work, and one table of its kinds.

A :class:`Job` is store-shaped: the content address its artifact lands
under, the encoded locked netlist, the config and (for a supervised
attack) the encoded training locks.  It holds no live library object,
so it runs the same in the submitting process, on a forked fleet member
or on a worker on another host, and its result is exactly the encoded
artifact the store keeps.

:data:`KINDS` says what each kind needs.  The figure runner, the wire
codec, the server, the worker, the client and the CLI's ``--store``
paths read it instead of branching on a kind.  A kind's attack code is
imported only when one of its jobs runs, so a local ``repro attack
--store`` loads no baseline attack.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.store.artifacts import (
    attack_store_key,
    baseline_store_key,
    circuit_digest,
    decode_attack_artifact,
    decode_baseline_artifact,
    decode_circuit,
    decode_lock_artifact,
    encode_attack_artifact,
    encode_baseline_artifact,
    encode_circuit,
    encode_lock_artifact,
)

__all__ = [
    "KINDS",
    "Job",
    "JobKind",
    "execute_job",
    "get_or_compute",
    "job_key",
    "make_job",
]


def _run_attack(circuit, config, train):
    from repro.core.muxlink import run_muxlink

    return run_muxlink(circuit, config)


def _run_baseline(circuit, config, train):
    from repro.attacks.baseline import run_baseline_attack

    return run_baseline_attack(circuit, config, train=train)


@dataclass(frozen=True)
class JobKind:
    """What one job kind needs.

    Attributes:
        store_kind: the store kind its artifact lands under.
        config: ``module:Class`` of its config, imported on first use.
        key: ``(circuit digest, config, ((train digest, train key), ...))``
            → the content address.
        run: ``(circuit, config, train locks)`` → the live artifact.
        encode / decode: the artifact's store payload codec.
        ships_train: whether its wire payload carries the training locks.
    """

    store_kind: str
    config: str
    key: Callable[[str, Any, tuple], str]
    run: Callable
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]
    ships_train: bool

    @property
    def config_class(self) -> type:
        module, _, name = self.config.partition(":")
        return getattr(importlib.import_module(module), name)


#: Job kind → what it needs.  The wire tag of a job is its key here.
KINDS = {
    "attack": JobKind(
        store_kind="attacks",
        config="repro.core.muxlink:MuxLinkConfig",
        key=lambda digest, config, train: attack_store_key(digest, config),
        run=_run_attack,
        encode=encode_attack_artifact,
        decode=decode_attack_artifact,
        ships_train=False,
    ),
    "baseline": JobKind(
        store_kind="baselines",
        config="repro.attacks.baseline:BaselineConfig",
        key=baseline_store_key,
        run=_run_baseline,
        encode=encode_baseline_artifact,
        decode=decode_baseline_artifact,
        ships_train=True,
    ),
}


@dataclass(frozen=True)
class Job:
    """One pending unit of attack work, in the scheduler's exchange format.

    Attributes:
        kind: a key of :data:`KINDS`.
        store_key: content address the finished artifact lands under.
        circuit: :func:`~repro.store.encode_circuit` payload of the
            locked netlist (gate order preserved — node indexing depends
            on it; key-less, the attacks are oracle-less).
        config: the kind's config (declarative, picklable).
        train: a supervised attack's corpus as encoded lock artifacts
            (keys included — supervision needs the ground truth), in
            corpus order.
    """

    kind: str
    store_key: str
    circuit: dict
    config: Any
    train: tuple = ()

    @property
    def spec(self) -> JobKind:
        return KINDS[self.kind]


def job_key(kind: str, circuit, config, train=()) -> str:
    """The content address a job of *kind* on *circuit* lands under.

    *train* holds the training :class:`~repro.locking.LockedCircuit`\\ s
    of a supervised kind.  The key is the runner's: the comment-free
    netlist digest (so the same design dumped to BENCH keys the same),
    the config, and the corpus digests with their keys.
    """
    pairs = tuple((circuit_digest(t.circuit), t.key) for t in train)
    return KINDS[kind].key(circuit_digest(circuit), config, pairs)


def make_job(kind: str, circuit, config, train=()) -> Job:
    """The job the runner would build for *circuit* under *config*."""
    return Job(
        kind=kind,
        store_key=job_key(kind, circuit, config, train),
        circuit=encode_circuit(circuit),
        config=config,
        train=tuple(encode_lock_artifact(t) for t in train),
    )


def execute_job(job: Job) -> dict:
    """Run one job; returns its encoded artifact.

    The single code path of serial, fleet, outside-worker and fail-over
    execution.  It consumes and produces store payloads only, so a run
    never depends on the submitting process's caches.
    """
    spec = job.spec
    train = tuple(decode_lock_artifact(payload) for payload in job.train)
    return spec.encode(spec.run(decode_circuit(job.circuit), job.config, train))


def get_or_compute(job: Job, store):
    """*job*'s decoded artifact from *store*, else computed and stored."""
    spec = job.spec
    artifact = store.get(spec.store_kind, job.store_key, decoder=spec.decode)
    if artifact is None:
        payload = execute_job(job)
        store.put(spec.store_kind, job.store_key, payload)
        artifact = spec.decode(payload)
    return artifact
