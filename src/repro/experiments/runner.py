"""Cache-aware experiment engine for the figure drivers.

The paper's figures are grids of *independent* attack cells over the
same locked netlists: MuxLink for Fig. 7-10, SCOPE/SWEEP for Fig. 2 and
every attack for the leaderboard.  This module turns each figure into a
declarative list of :class:`Cell` jobs, one type whatever the attack
kind, and executes them through one :class:`ExperimentRunner` that

* **parallelizes** — ``--jobs 0/1`` (``REPRO_JOBS``) runs the unique
  attacks serially in this process, so single-core runs stay exactly
  reproducible with no worker overhead; ``--jobs N`` hands them to a
  :class:`~repro.experiments.socketbus.SocketBus`, an in-process serve endpoint
  with N workers forked from this warm process, and ``--bus-addr``
  (``REPRO_BUS_ADDR``) binds that endpoint where outside ``repro worker
  --serve-addr`` processes can join;
* **caches** — locked netlists and attack artifacts are keyed by
  content (a digest of the locked BENCH text plus the attack
  configuration with the post-processing threshold normalized out), so a
  netlist locked for Fig. 7 is reused by Fig. 8's Hamming runs, Fig. 9's
  threshold sweep and the baselines' copy 0, and a trained checkpoint is
  reused across thresholds and figures wherever the config hash matches;
* **seeds per cell** — every cell derives its lock / train / coin RNG
  streams from ``SeedSequence(seed)`` spawned with a key computed from
  the cell identity ``(benchmark, scheme, key_size)``, *not* from grid
  iteration order, so serial, fanned-out and reordered runs produce
  bit-identical :class:`~repro.experiments.common.AttackRecord` payloads.

Cache coherence under parallelism is by construction: the parent process
plans the grid, dedupes jobs against its caches *before* any work is
submitted, executes only the unique jobs (on the bus or in-process),
and materializes every cell's record from the parent-side caches.
Workers never see the caches, so serial and fanned-out runs perform the
same unique computations in the same code path.

Every cache layer is a **write-through view over the artifact store**
(:class:`~repro.store.ArtifactStore`) when one is configured
(``--store`` / ``REPRO_STORE``): locked netlists and attack artifacts
are probed in memory first, then on disk, and whatever gets computed is
persisted — so a second process resumes ``repro figures`` with zero lock
and zero train jobs.  The scheduler boundary is store-shaped too: a
pending attack of any kind is one :class:`~repro.jobs.Job` — a
content-addressed store key plus the durable lock payload and config —
and a worker ships back the encoded artifact, exactly the unit a remote
host would return.  One plan and one record path serve every kind,
reading :data:`repro.jobs.KINDS`; a baseline attack's code is imported
only when a baseline cell is built or run.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.benchgen import load_benchmark
from repro.core import MuxLinkConfig, rescore_key, score_key
from repro.experiments.common import (
    AttackRecord,
    ExperimentScale,
    lock_with,
)
from repro.jobs import KINDS, Job, execute_job
from repro.locking import LockedCircuit
from repro.netlist import Circuit
from repro.settings import SettingsError, parse_jobs, setting
from repro.store import (
    ArtifactStore,
    circuit_digest,
    codec,
    decode_lock_artifact,
    encode_circuit,
    encode_lock_artifact,
    lock_store_key,
    resolve_store,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.attacks.baseline import BaselineConfig
    from repro.experiments.socketbus import SocketBus

__all__ = [
    "Cell",
    "ExperimentRunner",
    "RunnerStats",
    "make_baseline_cell",
    "make_cell",
    "record_fingerprint",
    "resolve_jobs",
]


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Worker-process count: explicit argument, else ``REPRO_JOBS``, else 0.

    ``0`` and ``1`` both mean *serial in-process* (the reproducible
    single-core default); ``"auto"`` maps to :func:`os.cpu_count`.
    """
    jobs = setting("REPRO_JOBS", jobs)
    if isinstance(jobs, str):
        jobs = parse_jobs(jobs)
    if jobs < 0:
        raise SettingsError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def _stable_u32(text: str) -> int:
    """Order- and process-independent 32-bit hash of a string."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _cell_seed_sequence(
    seed: int, benchmark: str, scheme: str, key_size: int
) -> np.random.SeedSequence:
    """Root :class:`~numpy.random.SeedSequence` of one cell.

    The spawn key is derived from the cell *identity* — not from the
    position of the cell in a grid — so the stream is invariant to grid
    order, worker count and which figure requested the cell.  ``h`` and
    ``threshold`` are deliberately excluded: Fig. 10's hop sweep and
    Fig. 9's threshold sweep attack the *same* locked instance.
    """
    return np.random.SeedSequence(
        entropy=seed,
        spawn_key=(_stable_u32(benchmark), _stable_u32(scheme), int(key_size)),
    )


def _derive_copy_seeds(
    seed: int, benchmark: str, scheme: str, key_size: int, copy: int = 0
) -> tuple[int, int]:
    """``(lock_seed, train_seed)`` for locked copy *copy* of one cell.

    Spawned children of a :class:`~numpy.random.SeedSequence` are keyed
    by their index, so copy *c* gets the same pair however many copies
    any figure asked for: copy 0 is the MuxLink grid's locked netlist,
    which a baseline attack on copy 0 shares by content address.
    """
    children = _cell_seed_sequence(seed, benchmark, scheme, key_size).spawn(
        2 * (int(copy) + 1)
    )
    return (
        int(children[2 * copy].generate_state(1)[0]),
        int(children[2 * copy + 1].generate_state(1)[0]),
    )


def _derive_baseline_seed(
    seed: int,
    benchmark: str,
    scheme: str,
    key_size: int,
    attack: str,
    copy: int = 0,
) -> int:
    """Coin-flip stream for one ``(cell, attack, copy)`` baseline run.

    The 5-element spawn key cannot collide with the 3-element cell
    roots or their 4-element spawned children, and hashing the attack
    name in keeps SCOPE's and SWEEP's coins independent on the same
    locked copy — the correlated-RNG bug the old ``seed + i`` scheme
    had (fig2 once fed the lock, SCOPE and SWEEP one flat stream).
    """
    root = np.random.SeedSequence(
        entropy=seed,
        spawn_key=(
            _stable_u32(benchmark),
            _stable_u32(scheme),
            int(key_size),
            _stable_u32(f"baseline:{attack}"),
            int(copy),
        ),
    )
    return int(root.generate_state(1)[0])


@dataclass(frozen=True)
class Cell:
    """One declarative job of a figure grid, of any attack kind.

    ``kind`` is a :data:`repro.jobs.KINDS` key and ``config`` that kind's
    config, whose seeds are the cell's derived streams.  ``lock_seed``
    locks the attacked instance, copy ``copy`` of the cell identity
    (copy 0 is the one every MuxLink cell attacks);
    ``train_lock_seeds`` lock a supervised attack's corpus, other copies
    of the same identity, in order.  Everything is precomputed by
    :func:`make_cell` / :func:`make_baseline_cell`, so a ``Cell`` is a
    self-contained, hashable, picklable work item.
    """

    kind: str
    benchmark: str
    scheme: str
    key_size: int
    circuit_scale: float
    seed: int
    lock_seed: int
    config: MuxLinkConfig | BaselineConfig
    copy: int = 0
    train_lock_seeds: tuple[int, ...] = ()


def _cell(
    kind: str,
    benchmark: str,
    circuit_scale: float,
    scheme: str,
    key_size: int,
    seed: int,
    config,
    copy: int = 0,
    train_copies: tuple[int, ...] = (),
) -> Cell:
    """A :class:`Cell` whose lock seeds derive from its identity."""

    def lock_seed(index: int) -> int:
        return _derive_copy_seeds(seed, benchmark, scheme, key_size, index)[0]

    return Cell(
        kind=kind,
        benchmark=benchmark,
        scheme=scheme,
        key_size=int(key_size),
        circuit_scale=float(circuit_scale),
        seed=int(seed),
        lock_seed=lock_seed(int(copy)),
        config=config,
        copy=int(copy),
        train_lock_seeds=tuple(lock_seed(int(j)) for j in train_copies),
    )


def make_cell(
    scale: ExperimentScale,
    benchmark: str,
    circuit_scale: float,
    scheme: str,
    key_size: int,
    seed: int = 0,
    *,
    h: int | None = None,
    threshold: float | None = None,
) -> Cell:
    """A MuxLink :class:`Cell` on copy 0, trained on the cell's own stream."""
    _, train_seed = _derive_copy_seeds(seed, benchmark, scheme, key_size)
    config = scale.attack_config(seed=train_seed)
    if h is not None:
        config = replace(config, h=h)
    if threshold is not None:
        config = replace(config, threshold=threshold)
    return _cell("attack", benchmark, circuit_scale, scheme, key_size, seed, config)


def make_baseline_cell(
    benchmark: str,
    circuit_scale: float,
    scheme: str,
    key_size: int,
    attack: str,
    seed: int = 0,
    copy: int = 0,
    train_copies: tuple[int, ...] = (),
    *,
    undecided: str = "coin",
    threshold: float = 1e-9,
    margin: float = 1e-6,
    ridge: float = 1e-3,
) -> Cell:
    """A baseline-attack :class:`Cell` on copy *copy*.

    ``train_copies`` name SWEEP's supervised corpus by copy index.
    """
    from repro.attacks.baseline import BaselineConfig

    config = BaselineConfig(
        attack=attack,
        undecided=undecided,
        seed=_derive_baseline_seed(seed, benchmark, scheme, key_size, attack, copy),
        threshold=threshold,
        margin=margin,
        ridge=ridge,
    )
    return _cell(
        "baseline",
        benchmark,
        circuit_scale,
        scheme,
        key_size,
        seed,
        config,
        copy,
        train_copies,
    )


@dataclass
class RunnerStats:
    """Instrumented cache counters (tests assert zero re-locks on warm runs).

    ``*_computed`` counts real work, ``*_loaded`` counts artifacts
    rematerialized from the on-disk store, ``*_reused`` counts in-memory
    (same-process) hits — a warm resumed ``repro figures`` therefore
    shows ``locks_computed == attacks_computed == 0``.
    """

    bases_loaded: int = 0
    bases_reused: int = 0
    locks_computed: int = 0
    locks_loaded: int = 0
    locks_reused: int = 0
    attacks_computed: int = 0
    attacks_loaded: int = 0
    attacks_reused: int = 0
    baselines_computed: int = 0
    baselines_loaded: int = 0
    baselines_reused: int = 0
    cells_run: int = 0

    def summary(self) -> str:
        return (
            f"cells={self.cells_run} "
            f"locks={self.locks_computed} "
            f"(+{self.locks_reused} cached, +{self.locks_loaded} store) "
            f"attacks={self.attacks_computed} "
            f"(+{self.attacks_reused} cached, +{self.attacks_loaded} store) "
            f"baselines={self.baselines_computed} "
            f"(+{self.baselines_reused} cached, "
            f"+{self.baselines_loaded} store)"
        )


def record_fingerprint(record: AttackRecord) -> tuple:
    """Deterministic payload of a record, for bit-identity assertions.

    Covers everything the attack *computed* — the record's cell identity,
    predicted key, metrics and true key, and its artifact as the store
    encodes it (a MuxLink run's per-MUX likelihoods, losses and weights;
    a baseline's attack name, per-bit scores and blind count) — and
    excludes only wall-clock timing, which can never be identical
    between two runs.  The artifact enters as the digest of its codec
    bytes, so a NaN loss compares equal to itself.
    """
    payload = KINDS[record.extras["kind"]].encode(record.extras["artifact"])
    del payload["runtime_seconds"]
    metrics = record.metrics
    return (
        record.benchmark,
        record.scheme,
        record.key_size,
        record.extras["copy"],
        record.predicted_key,
        (metrics.n_total, metrics.n_correct, metrics.n_wrong, metrics.n_x),
        record.extras["locked"].key,
        hashlib.sha256(codec.dumps(payload, kind="fingerprint")).hexdigest(),
    )


class ExperimentRunner:
    """Executes :class:`Cell` grids with artifact reuse and an optional bus.

    One runner instance is intended to be shared across figure drivers
    (see ``repro figures``): Fig. 8 / Fig. 9 / Fig. 10 then reuse the
    base circuits, locked netlists and trained attacks that Fig. 7
    already produced.  The runner is a context manager; ``close()``
    stops the bus and its forked workers (caches survive until the
    runner is garbage collected).

    *jobs* ≥ 2 or a *bus_addr* (else ``REPRO_BUS_ADDR``) puts a
    :class:`~repro.experiments.socketbus.SocketBus` under the runner, with the
    :data:`~repro.wire.DEFAULT_LIVENESS` fail-over deadline;
    *bus* passes one in ready-made, as the chaos drills do to tune its
    deadlines.

    With a *store* (an :class:`~repro.store.ArtifactStore`, a path, or
    the ``REPRO_STORE`` environment variable), the in-memory caches
    become a write-through view over the persistent content-addressed
    store: misses fall through to disk before computing, and computed
    locks/attacks are persisted — ``repro figures`` then resumes across
    invocations, and the CLI / bench suite / figure drivers share one
    artifact pool.  The in-memory layer stays in front, so the hot path
    of a single process is unchanged.
    """

    def __init__(
        self,
        jobs: int | str | None = None,
        store: ArtifactStore | str | os.PathLike | None = None,
        bus: "SocketBus | None" = None,
        bus_addr: str | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.store = resolve_store(store)
        bus_addr = setting("REPRO_BUS_ADDR", bus_addr)
        if bus is None and (self.jobs > 1 or bus_addr is not None):
            # Imported here: a serial run loads none of the serving layer.
            from repro.experiments.socketbus import SocketBus
            from repro.wire import DEFAULT_LIVENESS

            bus = SocketBus(
                bus_addr or "127.0.0.1:0",
                liveness=DEFAULT_LIVENESS,
                workers=self.jobs if self.jobs > 1 else 0,
            )
        #: ``None`` runs every job serially in this process.
        self.bus = bus
        self.stats = RunnerStats()
        self._bases: dict[tuple[str, float], Circuit] = {}
        self._base_digests: dict[tuple[str, float], str] = {}
        self._locks: dict[tuple, LockedCircuit] = {}
        self._digests: dict[tuple, str] = {}
        #: Decoded artifact (attack result or baseline report) by store key.
        self._artifacts: dict[str, object] = {}

    # -- context management -------------------------------------------------
    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Release the bus: its fleet and its socket (idempotent)."""
        if self.bus is not None:
            self.bus.close()

    # -- artifact caches ----------------------------------------------------
    def base_circuit(self, benchmark: str, circuit_scale: float) -> Circuit:
        """Load (or reuse) one stand-in benchmark circuit."""
        key = (benchmark, float(circuit_scale))
        if key in self._bases:
            self.stats.bases_reused += 1
        else:
            self._bases[key] = load_benchmark(benchmark, scale=circuit_scale)
            self.stats.bases_loaded += 1
        return self._bases[key]

    def _base_digest(self, benchmark: str, circuit_scale: float) -> str:
        """Content digest of a base circuit (feeds the lock store key)."""
        key = (benchmark, float(circuit_scale))
        if key not in self._base_digests:
            base = self.base_circuit(benchmark, circuit_scale)
            self._base_digests[key] = circuit_digest(base)
        return self._base_digests[key]

    def _record_lock(self, key: tuple, locked: LockedCircuit) -> str:
        # Comment-free design digest — the same address ``run_muxlink``
        # computes, so ``repro attack --store`` on a dumped locked BENCH
        # hits the artifact the figure runner trained (the attack is
        # oracle-less; neither the key nor the file name is content).
        self._locks[key] = locked
        self._digests[key] = circuit_digest(locked.circuit)
        return self._digests[key]

    def _lock_instance(self, cell: Cell, lock_seed: int) -> tuple:
        """Lock (or reuse) one netlist instance; returns its cache key.

        Probe order: in-memory cache, then the artifact store (the
        decoded payload preserves gate insertion order, so a store-loaded
        netlist is attack-identical to a freshly locked one), then a real
        locking pass — which is written through to the store.  The lock
        seed is explicit because SWEEP's training corpus locks other
        instances of the cell's identity, which no cell directly attacks.
        """
        benchmark, circuit_scale = cell.benchmark, cell.circuit_scale
        scheme, key_size = cell.scheme, cell.key_size
        key = (benchmark, float(circuit_scale), scheme, int(key_size), int(lock_seed))
        if key in self._locks:
            self.stats.locks_reused += 1
            return key
        store_key = None
        if self.store is not None:
            store_key = lock_store_key(
                self._base_digest(benchmark, circuit_scale),
                scheme,
                key_size,
                lock_seed,
            )
            locked = self.store.get(
                "locks", store_key, decoder=decode_lock_artifact
            )
            if locked is not None:
                self._record_lock(key, locked)
                self.stats.locks_loaded += 1
                return key
        base = self.base_circuit(benchmark, circuit_scale)
        locked = lock_with(scheme, base, key_size=key_size, seed=lock_seed)
        self._record_lock(key, locked)
        self.stats.locks_computed += 1
        if store_key is not None:
            self.store.put("locks", store_key, encode_lock_artifact(locked))
        return key

    # -- execution ----------------------------------------------------------
    def run(self, cells) -> list[AttackRecord]:
        """Execute a grid; returns one record per cell, in cell order.

        Cells of every kind share one wave of pending unique jobs, so a
        leaderboard's GNN trainings and its SCOPE/SWEEP runs fan out
        over the same workers.
        """
        cells = list(cells)
        pending: dict[str, Job] = {}
        plans = [self._plan(cell, pending) for cell in cells]
        self._execute(pending)
        self.stats.cells_run += len(cells)
        return [self._materialize(cell, *plan) for cell, plan in zip(cells, plans)]

    def _plan(self, cell: Cell, pending: dict[str, Job]) -> tuple[tuple, str]:
        """Lock the cell's instance and corpus, and key its job; reuse,
        load or queue the artifact.  Returns ``(lock key, artifact key)``.

        The artifact key is the on-disk store's content address: a
        MuxLink key normalizes the threshold and the execution knobs out
        (Fig. 9 rescores without retraining).
        """
        spec = KINDS[cell.kind]
        lock_key = self._lock_instance(cell, cell.lock_seed)
        train_keys = [self._lock_instance(cell, s) for s in cell.train_lock_seeds]
        train = tuple((self._digests[k], self._locks[k].key) for k in train_keys)
        key = spec.key(self._digests[lock_key], cell.config, train)
        if key in self._artifacts or key in pending:
            event = "reused"
        elif self.store is not None and (
            stored := self.store.get(spec.store_kind, key, decoder=spec.decode)
        ) is not None:
            self._artifacts[key] = stored
            event = "loaded"
        else:
            pending[key] = Job(
                kind=cell.kind,
                store_key=key,
                circuit=encode_circuit(self._locks[lock_key].circuit),
                config=cell.config,
                train=tuple(
                    encode_lock_artifact(self._locks[k]) for k in train_keys
                ),
            )
            event = "computed"
        counter = f"{spec.store_kind}_{event}"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return lock_key, key

    def _execute(self, pending: dict[str, Job]) -> None:
        """Run the unique jobs through the configured bus.

        Every finished artifact is cached and written through **as it
        completes** — a crashed worker or an interrupt late in a grid
        must not discard hours of already-finished training; the rerun
        resumes from whatever landed in the store.  Serially, a failing
        job raises as it is; on the bus it is retried up to
        ``retry.max_attempts`` and then raises
        :class:`~repro.errors.ServeError` with the worker's traceback.
        """
        jobs = list(pending.values())
        if self.bus is None:
            for job in jobs:
                self._finish_job(job, execute_job(job))
        elif jobs:
            for job, payload in self.bus.run(jobs):
                self._finish_job(job, payload)

    def _finish_job(self, job: Job, payload: dict) -> None:
        self._artifacts[job.store_key] = job.spec.decode(payload)
        if self.store is not None:
            self.store.put(job.spec.store_kind, job.store_key, payload)

    def _materialize(
        self, cell: Cell, lock_key: tuple, artifact_key: str
    ) -> AttackRecord:
        """One cell's record from the cached lock and artifact.

        The predicted key and the runtime are the only parts that depend
        on the kind.  A MuxLink artifact is rescored at the cell's own
        threshold, which keeps cached results exact across Fig. 9's
        sweep (at the trained threshold it is the identity); a baseline
        report's key is final.
        """
        artifact = self._artifacts[artifact_key]
        locked = self._locks[lock_key]
        if cell.kind == "attack":
            predicted = rescore_key(artifact, cell.config.threshold)
            runtime = artifact.total_runtime
        else:
            predicted, runtime = artifact.predicted_key, artifact.runtime_seconds
        return AttackRecord(
            benchmark=cell.benchmark,
            scheme=cell.scheme,
            key_size=cell.key_size,
            metrics=score_key(predicted, locked.key),
            runtime_seconds=runtime,
            predicted_key=predicted,
            extras={
                "kind": cell.kind,
                "artifact": artifact,
                "locked": locked,
                "base": self._bases[(cell.benchmark, cell.circuit_scale)],
                "copy": cell.copy,
            },
        )
