"""Cache-aware experiment engine for the figure drivers.

The paper's headline figures (Fig. 7-10) are grids of *independent*
(benchmark x scheme x key size) attack cells.  This module turns each
figure into a declarative list of :class:`Cell` jobs and executes them
through one :class:`ExperimentRunner` that

* **parallelizes** — ``--jobs 0/1`` (``REPRO_JOBS``) runs the unique
  attacks serially in this process, so single-core runs stay exactly
  reproducible with no worker overhead; ``--jobs N`` hands them to a
  :class:`~repro.experiments.socketbus.SocketBus`, an in-process serve endpoint
  with N workers forked from this warm process, and ``--bus-addr``
  (``REPRO_BUS_ADDR``) binds that endpoint where outside ``repro worker
  --serve-addr`` processes can join;
* **caches** — locked netlists and trained attack results are keyed by
  content (a digest of the locked BENCH text plus the attack
  configuration with the post-processing threshold normalized out), so a
  netlist locked for Fig. 7 is reused by Fig. 8's Hamming runs and
  Fig. 9's threshold sweep, and a trained checkpoint is reused across
  thresholds and figures wherever the config hash matches;
* **seeds per cell** — every cell derives its lock / train RNG streams
  from ``SeedSequence(seed)`` spawned with a key computed from the cell
  identity ``(benchmark, scheme, key_size)``, *not* from grid iteration
  order, so serial, fanned-out and reordered runs produce bit-identical
  :class:`~repro.experiments.common.AttackRecord` payloads.

Cache coherence under parallelism is by construction: the parent process
plans the grid, dedupes attack jobs against its caches *before* any work
is submitted, executes only the unique jobs (on the bus or in-process),
and materializes every cell's record from the parent-side caches.
Workers never see the caches, so serial and fanned-out runs perform the
same unique computations in the same code path.

Every cache layer is a **write-through view over the artifact store**
(:class:`~repro.store.ArtifactStore`) when one is configured
(``--store`` / ``REPRO_STORE``): locked netlists and trained attacks are
probed in memory first, then on disk, and whatever gets computed is
persisted — so a second process resumes ``repro figures`` with zero lock
and zero train jobs.  The scheduler boundary is store-shaped too: a
pending MuxLink or baseline attack is one :class:`~repro.jobs.Job` — a
content-addressed store key plus the durable lock payload and config —
and a worker ships back the encoded artifact, exactly the unit a remote
host would return.  The runner keys, loads and queues both kinds through
one path over one artifact cache, reading :data:`repro.jobs.KINDS`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.baseline import BaselineConfig, BaselineReport
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
    decode_lock_artifact,
    encode_circuit,
    encode_lock_artifact,
    lock_store_key,
    resolve_store,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.socketbus import SocketBus

__all__ = [
    "BaselineCell",
    "Cell",
    "ExperimentRunner",
    "RunnerStats",
    "cell_seed_sequence",
    "derive_baseline_seed",
    "derive_cell_seeds",
    "derive_copy_seeds",
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


def cell_seed_sequence(
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


def derive_cell_seeds(
    seed: int, benchmark: str, scheme: str, key_size: int
) -> tuple[int, int]:
    """Independent ``(lock_seed, train_seed)`` streams for one cell."""
    lock_ss, train_ss = cell_seed_sequence(seed, benchmark, scheme, key_size).spawn(2)
    return (
        int(lock_ss.generate_state(1)[0]),
        int(train_ss.generate_state(1)[0]),
    )


def derive_copy_seeds(
    seed: int, benchmark: str, scheme: str, key_size: int, copy: int = 0
) -> tuple[int, int]:
    """``(lock_seed, train_seed)`` for locked copy *copy* of one cell.

    Spawned children of a :class:`~numpy.random.SeedSequence` are keyed
    by their index, so copy 0 is **bit-identical** to
    :func:`derive_cell_seeds` — a baseline attack on copy 0 shares the
    fig7 grid's locked netlist (and therefore its lock artifact) by
    content address, while every further copy gets an independent
    stream regardless of how many copies any particular figure asked
    for.
    """
    children = cell_seed_sequence(seed, benchmark, scheme, key_size).spawn(
        2 * (int(copy) + 1)
    )
    return (
        int(children[2 * copy].generate_state(1)[0]),
        int(children[2 * copy + 1].generate_state(1)[0]),
    )


def derive_baseline_seed(
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
    """One declarative attack job of a figure grid.

    ``lock_seed`` and ``config`` (whose sampling/train seeds are the
    cell's derived streams) are precomputed by :func:`make_cell`, so a
    ``Cell`` is a self-contained, hashable, picklable work item.
    """

    benchmark: str
    scheme: str
    key_size: int
    circuit_scale: float
    seed: int
    lock_seed: int
    config: MuxLinkConfig


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
    """Build a :class:`Cell` with per-cell RNG streams derived from *seed*."""
    lock_seed, train_seed = derive_cell_seeds(seed, benchmark, scheme, key_size)
    config = scale.attack_config(seed=train_seed)
    if h is not None:
        config = replace(config, h=h)
    if threshold is not None:
        config = replace(config, threshold=threshold)
    return Cell(
        benchmark=benchmark,
        scheme=scheme,
        key_size=int(key_size),
        circuit_scale=float(circuit_scale),
        seed=int(seed),
        lock_seed=lock_seed,
        config=config,
    )


@dataclass(frozen=True)
class BaselineCell:
    """One declarative baseline-attack job (SAAM/SCOPE/SWEEP/random).

    The same self-contained shape as :class:`Cell`: lock seeds and the
    attack config are precomputed by :func:`make_baseline_cell`, so a
    grid is pure data.  ``copy`` indexes the locked instance under
    attack (copy 0 shares the MuxLink grid's lock by construction);
    ``train_copies``/``train_lock_seeds`` name SWEEP's supervised
    corpus — other locked copies of the *same* cell identity, in order.
    """

    benchmark: str
    scheme: str
    key_size: int
    circuit_scale: float
    seed: int
    copy: int
    lock_seed: int
    attack: str
    config: BaselineConfig
    train_copies: tuple[int, ...] = ()
    train_lock_seeds: tuple[int, ...] = ()


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
) -> BaselineCell:
    """Build a :class:`BaselineCell` with per-cell derived RNG streams."""
    lock_seed, _ = derive_copy_seeds(seed, benchmark, scheme, key_size, copy)
    config = BaselineConfig(
        attack=attack,
        undecided=undecided,
        seed=derive_baseline_seed(seed, benchmark, scheme, key_size, attack, copy),
        threshold=threshold,
        margin=margin,
        ridge=ridge,
    )
    return BaselineCell(
        benchmark=benchmark,
        scheme=scheme,
        key_size=int(key_size),
        circuit_scale=float(circuit_scale),
        seed=int(seed),
        copy=int(copy),
        lock_seed=lock_seed,
        attack=attack,
        config=config,
        train_copies=tuple(int(j) for j in train_copies),
        train_lock_seeds=tuple(
            derive_copy_seeds(seed, benchmark, scheme, key_size, j)[0]
            for j in train_copies
        ),
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

    Covers everything the attack *computed* — predicted key, metrics,
    per-MUX likelihoods, training losses — and excludes only wall-clock
    timing, which can never be identical between two runs.  Works for
    both MuxLink records (``extras["result"]``) and baseline records
    (``extras["report"]``).
    """
    if "report" in record.extras:
        report: BaselineReport = record.extras["report"]
        return (
            record.benchmark,
            record.scheme,
            record.key_size,
            report.attack,
            record.extras.get("copy", 0),
            record.predicted_key,
            (
                record.metrics.n_total,
                record.metrics.n_correct,
                record.metrics.n_wrong,
                record.metrics.n_x,
            ),
            tuple(sorted(report.scores.items())),
            report.n_blind,
            record.extras["locked"].key,
        )
    result = record.extras["result"]
    scored = tuple(
        sorted(
            (s.mux_name, s.key_index, s.load, s.likelihoods)
            for s in result.scored
        )
    )
    return (
        record.benchmark,
        record.scheme,
        record.key_size,
        record.predicted_key,
        (
            record.metrics.n_total,
            record.metrics.n_correct,
            record.metrics.n_wrong,
            record.metrics.n_x,
        ),
        scored,
        tuple(result.history.train_loss),
        tuple(result.history.val_loss),
        record.extras["locked"].key,
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

    def _lock_instance(self, cell: "Cell | BaselineCell", lock_seed: int) -> tuple:
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

    def locked_circuit(self, cell: "Cell | BaselineCell") -> LockedCircuit:
        """Lock (or reuse) the cell's netlist (see :meth:`_lock_instance`)."""
        return self._locks[self._lock_instance(cell, cell.lock_seed)]

    # -- execution ----------------------------------------------------------
    def run(self, cells) -> list[AttackRecord]:
        """Execute a grid; returns one record per cell, in cell order.

        Grids may freely mix MuxLink :class:`Cell`\\ s and
        :class:`BaselineCell`\\ s — all pending unique jobs ride one bus
        wave, so a leaderboard's GNN trainings and its SCOPE/SWEEP runs
        fan out over the same workers.
        """
        cells = list(cells)
        plans: list[tuple] = []
        pending: dict = {}
        for cell in cells:
            if isinstance(cell, BaselineCell):
                plans.append(self._plan_baseline(cell, pending))
            else:
                plans.append(self._plan_attack(cell, pending))

        self._execute(pending)
        self.stats.cells_run += len(cells)
        return [self._materialize(*plan) for plan in plans]

    def _plan_attack(self, cell: Cell, pending: dict) -> tuple:
        lock_key = self._lock_instance(cell, cell.lock_seed)
        # Content address shared with the on-disk store: the threshold
        # and the execution knobs are normalized out (Fig. 9 rescales
        # without retraining).
        key = self._plan_job("attack", lock_key, cell.config, pending)
        return (cell, lock_key, key)

    def _plan_baseline(self, cell: BaselineCell, pending: dict) -> tuple:
        lock_key = self._lock_instance(cell, cell.lock_seed)
        train_keys = [self._lock_instance(cell, seed) for seed in cell.train_lock_seeds]
        key = self._plan_job("baseline", lock_key, cell.config, pending, train_keys)
        return (cell, lock_key, key)

    def _plan_job(
        self, kind: str, lock_key: tuple, config, pending: dict, train_keys=()
    ) -> str:
        """Key one job on a cached lock; reuse, load or queue its artifact."""
        spec = KINDS[kind]
        train = tuple((self._digests[k], self._locks[k].key) for k in train_keys)
        key = spec.key(self._digests[lock_key], config, train)
        if key in self._artifacts or key in pending:
            event = "reused"
        elif self.store is not None and (
            stored := self.store.get(spec.store_kind, key, decoder=spec.decode)
        ) is not None:
            self._artifacts[key] = stored
            event = "loaded"
        else:
            pending[key] = Job(
                kind=kind,
                store_key=key,
                circuit=encode_circuit(self._locks[lock_key].circuit),
                config=config,
                train=tuple(
                    encode_lock_artifact(self._locks[k]) for k in train_keys
                ),
            )
            event = "computed"
        counter = f"{spec.store_kind}_{event}"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return key

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

    def _materialize(self, cell, lock_key: tuple, artifact_key: str) -> AttackRecord:
        if isinstance(cell, BaselineCell):
            return self._materialize_baseline(cell, lock_key, artifact_key)
        return self._materialize_attack(cell, lock_key, artifact_key)

    def _materialize_baseline(
        self, cell: BaselineCell, lock_key: tuple, baseline_key: str
    ) -> AttackRecord:
        report = self._artifacts[baseline_key]
        locked = self._locks[lock_key]
        metrics = score_key(report.predicted_key, locked.key)
        return AttackRecord(
            benchmark=cell.benchmark,
            scheme=cell.scheme,
            key_size=cell.key_size,
            metrics=metrics,
            runtime_seconds=report.runtime_seconds,
            predicted_key=report.predicted_key,
            extras={
                "report": report,
                "locked": locked,
                "attack": cell.attack,
                "copy": cell.copy,
            },
        )

    def _materialize_attack(
        self, cell: Cell, lock_key: tuple, attack_key: str
    ) -> AttackRecord:
        result = self._artifacts[attack_key]
        locked = self._locks[lock_key]
        # Rescoring at the cell's own threshold keeps cached results exact
        # across Fig. 9's sweep; at the trained threshold it is the
        # identity (post-processing is deterministic).
        predicted = rescore_key(result, cell.config.threshold)
        metrics = score_key(predicted, locked.key)
        return AttackRecord(
            benchmark=cell.benchmark,
            scheme=cell.scheme,
            key_size=cell.key_size,
            metrics=metrics,
            runtime_seconds=result.total_runtime,
            predicted_key=predicted,
            extras={
                "result": result,
                "locked": locked,
                "base": self._bases[(cell.benchmark, cell.circuit_scale)],
            },
        )
