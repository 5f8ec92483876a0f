"""`repro chaos` — run the smoke grid under a named fault plan.

A *drill* is one end-to-end proof of the robustness contract: arm a
:class:`~repro.faults.FaultPlan`, run the Fig. 7 smoke grid through the
real topology the plan targets (worker subprocesses over a spool, a
``--serve-addr`` worker against a :class:`~repro.bus.SocketBus` — the
in-process serve endpoint — or the in-process store path), and assert
that the resulting records and rendered table are **bit-identical** to
a clean serial run.  Faults that were injected but
recovered from must be invisible in the science; only the recovery
counters (requeues, fail-overs, write retries) may differ.

This module is imported lazily by the CLI — it drives
:mod:`repro.experiments`, which :mod:`repro.faults` itself must never
import at module scope (the store depends on the faults package).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plan import (
    FAULT_PLAN_ENV,
    FaultPlan,
    named_fault_plan,
)

__all__ = ["DRILL_TOPOLOGY", "DrillOutcome", "run_chaos"]

#: Which execution topology exercises each named plan.  ``spool`` and
#: ``socket`` drills run real worker subprocesses (the plan travels via
#: ``REPRO_FAULT_PLAN``; the socket worker is the pipelined serve
#: loop); ``local`` drills arm the plan in-process and exercise the
#: store write/read path; the ``serve`` drill runs a real
#: ``repro serve`` process (pipelined workers + remote store) and gates
#: on bit-identical artifact payloads rather than figure tables.
DRILL_TOPOLOGY: dict[str, str] = {
    "worker-crash": "spool",
    "heartbeat-stall": "spool",
    "lease-race": "spool",
    "all-workers-die": "spool",
    "socket-flaky": "socket",
    "serve-flaky": "serve",
    "torn-store": "local",
    "enospc": "local",
}

#: Lease heartbeat deadline for drill spools — short, so reaping a
#: killed worker does not dominate drill wall-clock.
_DRILL_STALE = 1.5
#: Fail-over deadline for the all-workers-die drill (must exceed
#: ``_DRILL_STALE`` so the corpse leases are reaped first).
_DRILL_LIVENESS = 4.0

_FIRED_LINE = re.compile(r"fault\[([a-z_.]+)\]: fired")


@dataclass
class DrillOutcome:
    """One drill's verdict: parity, injections, and recovery counters."""

    plan: str
    topology: str
    fingerprints_match: bool = False
    tables_match: bool = False
    injected: dict[str, int] = field(default_factory=dict)
    requeues: int = 0
    failed_over: int = 0
    write_retries: int = 0
    store_discards: int = 0
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        parts = [
            f"chaos[{self.plan}]: {verdict} ({self.topology}, "
            f"{self.total_injected} injected, {self.seconds:.1f}s)"
        ]
        recovered = []
        if self.requeues:
            recovered.append(f"requeues={self.requeues}")
        if self.failed_over:
            recovered.append(f"failed-over={self.failed_over}")
        if self.write_retries:
            recovered.append(f"write-retries={self.write_retries}")
        if self.store_discards:
            recovered.append(f"store-discards={self.store_discards}")
        if recovered:
            parts.append(" ".join(recovered))
        for failure in self.failures:
            parts.append(f"!! {failure}")
        return "\n".join(parts)


def _mask_runtime(table: str) -> str:
    """Blank the wall-clock column — the one legitimately varying field."""
    return "\n".join(
        re.sub(r"\d+\.\d$", "<sec>", line) for line in table.splitlines()
    )


def _src_root() -> str:
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


def _worker_env(plan: FaultPlan | None) -> dict:
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": _src_root(),
        "PYTHONHASHSEED": "0",
    }
    if plan is not None:
        env[FAULT_PLAN_ENV] = plan.dumps()
    return env


def _spawn_worker(
    args: "list[str]", plan: FaultPlan | None
) -> subprocess.Popen:
    """A ``repro worker`` subprocess running under *plan*."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            *args,
            "--poll", "0.1",
            "--idle-timeout", "60",
        ],
        env=_worker_env(plan),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _spawn_spool_worker(
    spool_root, store_root, plan: FaultPlan | None
) -> subprocess.Popen:
    return _spawn_worker(
        [
            "--bus-dir", str(spool_root),
            "--store", str(store_root),
            "--stale-after", str(_DRILL_STALE),
        ],
        plan,
    )


def _reap_worker(proc: subprocess.Popen) -> str:
    """Terminate a drill worker and return its captured output."""
    if proc.poll() is None:
        proc.terminate()
    try:
        output, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - wedged worker
        proc.kill()
        output, _ = proc.communicate()
    return output or ""


def _count_fired(outputs: "list[str]", counts: dict) -> None:
    for output in outputs:
        for match in _FIRED_LINE.finditer(output):
            counts[match.group(1)] = counts.get(match.group(1), 0) + 1


class _Reference:
    """The clean serial run every drill is compared against."""

    def __init__(self, scale, seed: int) -> None:
        from repro.experiments import fig7_cells, format_fig7
        from repro.experiments.runner import ExperimentRunner, record_fingerprint

        self.cells = fig7_cells(scale, seed)
        with ExperimentRunner(jobs=0) as runner:
            records = runner.run(self.cells)
        self.fingerprints = [record_fingerprint(r) for r in records]
        self.table = _mask_runtime(format_fig7(records))


def _check_parity(outcome: DrillOutcome, reference: _Reference, records) -> None:
    from repro.experiments import format_fig7
    from repro.experiments.runner import record_fingerprint

    outcome.fingerprints_match = (
        [record_fingerprint(r) for r in records] == reference.fingerprints
    )
    outcome.tables_match = (
        _mask_runtime(format_fig7(records)) == reference.table
    )
    if not outcome.fingerprints_match:
        outcome.failures.append(
            "record fingerprints diverged from the clean serial run"
        )
    if not outcome.tables_match:
        outcome.failures.append("figure table diverged from the clean serial run")


def _require(outcome: DrillOutcome, condition: bool, what: str) -> None:
    if not condition:
        outcome.failures.append(what)


def _drill_spool(
    plan: FaultPlan, reference: _Reference, outcome: DrillOutcome, workdir: Path
) -> None:
    from repro.bus import SpoolBus, SpoolDir
    from repro.experiments.runner import ExperimentRunner
    from repro.store import ArtifactStore

    all_die = plan.name == "all-workers-die"
    shared = plan.name == "lease-race"  # every worker runs under the plan
    store = ArtifactStore(workdir / "store")
    spool = SpoolDir(workdir / "spool", stale_after=_DRILL_STALE)
    bus = SpoolBus(
        spool,
        store,
        poll=0.1,
        timeout=240,
        liveness=_DRILL_LIVENESS if all_die else None,
    )
    victims = [_spawn_spool_worker(spool.root, store.root, plan)]
    if all_die:
        victims.append(_spawn_spool_worker(spool.root, store.root, plan))
    helpers: list[subprocess.Popen] = []
    stop = threading.Event()

    def _spawn_helper_on_first_lease() -> None:
        # The victim must win a lease before a healthy peer enters the
        # race, or a 2-job smoke grid can finish without ever touching
        # the armed worker.  A crashed victim leaves its lease behind,
        # so "leased/ is non-empty" covers both the stall and the crash.
        while not stop.is_set():
            if spool.leased_keys():
                helpers.append(
                    _spawn_spool_worker(spool.root, store.root, None)
                )
                return
            time.sleep(0.05)

    watcher = None
    if not all_die and not shared:
        watcher = threading.Thread(
            target=_spawn_helper_on_first_lease, daemon=True
        )
        watcher.start()
    elif shared:
        helpers.append(_spawn_spool_worker(spool.root, store.root, plan))

    runner = ExperimentRunner(jobs=0, store=store, bus=bus)
    try:
        records = runner.run(reference.cells)
    finally:
        stop.set()
        if watcher is not None:
            watcher.join(timeout=10)
        outputs = [_reap_worker(p) for p in victims + helpers]
        runner.close()
    _count_fired(outputs, outcome.injected)
    outcome.requeues = bus.stats.requeues
    outcome.failed_over = bus.stats.failed_over
    outcome.write_retries = store.stats.write_retries
    outcome.store_discards = store.stats.errors
    _check_parity(outcome, reference, records)
    if all_die:
        _require(
            outcome,
            outcome.failed_over >= 1,
            "coordinator never failed over despite a dead worker fleet",
        )
    elif plan.name in ("worker-crash", "heartbeat-stall"):
        _require(
            outcome,
            outcome.requeues >= 1,
            "no lease was ever reaped — the fault did not bite",
        )


def _drill_socket(
    plan: FaultPlan, reference: _Reference, outcome: DrillOutcome, workdir: Path
) -> None:
    from repro.bus import SocketBus
    from repro.experiments.runner import ExperimentRunner

    bus = SocketBus(poll=0.1, timeout=240)
    worker = _spawn_worker(["--serve-addr", bus.address], plan)
    runner = ExperimentRunner(jobs=0, store=workdir / "store", bus=bus)
    try:
        records = runner.run(reference.cells)
    finally:
        outputs = [_reap_worker(worker)]
        runner.close()
    _count_fired(outputs, outcome.injected)
    outcome.requeues = bus.stats.requeues
    outcome.failed_over = bus.stats.failed_over
    _check_parity(outcome, reference, records)
    _require(
        outcome,
        outcome.requeues >= 1,
        "no job was requeued — the dropped frame never happened",
    )


def _drill_local(
    plan: FaultPlan, reference: _Reference, outcome: DrillOutcome, workdir: Path
) -> None:
    from repro import faults
    from repro.experiments.runner import ExperimentRunner
    from repro.store import ArtifactStore

    store = ArtifactStore(workdir / "store")
    faults.activate(plan)
    try:
        # Cold pass: the armed writes (torn file / ENOSPC) hit here and
        # must be absorbed by the store's RetryPolicy.
        with ExperimentRunner(jobs=0, store=store) as runner:
            records = runner.run(reference.cells)
        _check_parity(outcome, reference, records)
        if any(site.site == "store.read_corrupt" for site in plan.sites):
            # Warm pass from a fresh runner: the armed read fires on the
            # first successful decode, is discarded as a miss, and the
            # recompute heals the entry in place.
            with ExperimentRunner(jobs=0, store=store) as warm_runner:
                warm = warm_runner.run(reference.cells)
            warm_outcome = DrillOutcome(plan=plan.name, topology="local")
            _check_parity(warm_outcome, reference, warm)
            outcome.failures.extend(
                f"warm pass: {f}" for f in warm_outcome.failures
            )
            outcome.store_discards += warm_runner.store.stats.errors
        for site, count in faults.fired_counts().items():
            outcome.injected[site] = outcome.injected.get(site, 0) + count
    finally:
        faults.deactivate()
    outcome.write_retries = store.stats.write_retries
    outcome.store_discards += store.stats.errors
    _require(
        outcome,
        outcome.write_retries >= 1,
        "no write was ever retried — the fault did not bite",
    )
    corrupt = store.verify()
    _require(
        outcome,
        not corrupt,
        f"cache verify flagged {len(corrupt)} entr(y/ies) after healing",
    )


def _canon_payload(value):
    """Hashable canonical form of a codec payload tree (arrays by bytes)."""
    import numpy as np

    if isinstance(value, dict):
        return tuple(
            sorted((k, _canon_payload(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canon_payload(v) for v in value)
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    return value


def _artifact_fingerprint(payload: dict):
    """Bit-level identity of an artifact, minus wall-clock timing."""
    return _canon_payload(
        {k: v for k, v in payload.items() if k != "runtime_seconds"}
    )


_SERVE_READY = re.compile(r"serve: listening on (\S+) ")


def _drill_serve(
    plan: FaultPlan, reference: _Reference, outcome: DrillOutcome, workdir: Path
) -> None:
    """Attack-as-a-service drill: drop accepted connections, time out reads.

    A real ``repro serve`` process (two pipelined workers, on-disk store)
    runs under the plan — ``serve.accept_drop`` fires in its listener as
    workers and clients connect, and every party must reconnect-and-retry
    through it.  The drill process arms the same plan locally so
    ``remote_store.read_timeout`` bites the :class:`RemoteStore` fetch of
    the finished artifacts.  No figure table is rendered at the job
    level, so parity gates on the artifact payloads themselves: every
    served artifact must be bit-identical (timing aside) to a clean
    in-process :func:`execute_job` run of the same jobs.
    """
    from repro import faults
    from repro.benchgen import load_benchmark
    from repro.client import ServeClient
    from repro.experiments.common import lock_with
    from repro.experiments.runner import execute_job
    from repro.store.remote import RemoteStore

    # The exact AttackJobs the runner/client would build for the grid.
    jobs = []
    for cell in reference.cells:
        base = load_benchmark(cell.benchmark, scale=cell.circuit_scale)
        locked = lock_with(
            cell.scheme, base, key_size=cell.key_size, seed=cell.lock_seed
        )
        jobs.append(ServeClient.job_for(locked.circuit, cell.config))

    # Clean in-process reference: the parity target for every served job.
    expected = {
        job.store_key: _artifact_fingerprint(execute_job(job))
        for job in jobs
    }

    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--addr", "127.0.0.1:0",
            "--store", str(workdir / "store"),
            "--workers", "2",
            "--poll", "0.1",
        ],
        env=_worker_env(plan),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = remote = None
    faults.activate(plan)
    try:
        # Readiness line first — fault-fired lines only start once
        # connections arrive, so the bound address is always line one.
        box: dict = {}
        reader = threading.Thread(
            target=lambda: box.update(line=proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout=60)
        match = _SERVE_READY.search(box.get("line") or "")
        if match is None:
            outcome.failures.append(
                f"serve never became ready: {box.get('line')!r}"
            )
            return
        address = match.group(1)

        client = ServeClient(address)
        for job in jobs:
            client.submit_job(job, wait=False)
        served = {}
        for job in jobs:
            client.result(job.store_key, timeout=240)
            remote = remote or RemoteStore(address)
            payload = remote.get(job.artifact_kind, job.store_key)
            _require(
                outcome,
                payload is not None,
                f"remote store lost artifact {job.store_key[:12]}…",
            )
            if payload is not None:
                served[job.store_key] = _artifact_fingerprint(payload)
        stats = client.stats()
        outcome.requeues = int(stats.get("requeues", 0))
        outcome.failed_over = int(stats.get("failed_over", 0))
        client.shutdown()

        outcome.fingerprints_match = served == expected
        # No table exists at the job level; payload identity is the gate.
        outcome.tables_match = outcome.fingerprints_match
        if not outcome.fingerprints_match:
            outcome.failures.append(
                "served artifacts diverged from the clean in-process run"
            )
    finally:
        # Local fires (the remote-store timeout) are erased by
        # deactivate(), so fold them into the tally first.
        for site, count in faults.fired_counts().items():
            outcome.injected[site] = outcome.injected.get(site, 0) + count
        faults.deactivate()
        if remote is not None:
            remote.close()
        if client is not None:
            client.close()
        output = _reap_worker(proc)
        outcome.store_discards = remote.stats.errors if remote else 0
    _count_fired([output], outcome.injected)
    _require(
        outcome,
        outcome.injected.get("serve.accept_drop", 0) >= 1,
        "the listener never dropped a connection — accept_drop did not bite",
    )
    _require(
        outcome,
        outcome.injected.get("remote_store.read_timeout", 0) >= 1,
        "no remote-store read ever timed out — the fault did not bite",
    )


_DRILL_RUNNERS = {
    "spool": _drill_spool,
    "socket": _drill_socket,
    "serve": _drill_serve,
    "local": _drill_local,
}


def run_chaos(
    plans: "list[str]",
    scale=None,
    seed: int = 0,
    keep: bool = False,
    log=print,
) -> "list[DrillOutcome]":
    """Run one drill per named plan; return their outcomes.

    Every drill compares against one shared clean serial run of the
    Fig. 7 grid at *scale* (default: the active experiment scale,
    ``REPRO_EXPERIMENT_SCALE`` or ``ci``).  Work directories are
    deleted unless *keep*.
    """
    from repro.experiments.common import active_scale

    scale = scale or active_scale()
    for name in plans:
        if name not in DRILL_TOPOLOGY:
            raise ValueError(
                f"unknown chaos plan {name!r}; known: "
                + ", ".join(sorted(DRILL_TOPOLOGY))
            )
    log(f"chaos: clean reference run (scale={scale.name}, seed={seed})")
    reference = _Reference(scale, seed)
    outcomes = []
    for name in plans:
        plan = named_fault_plan(name, seed=seed)
        topology = DRILL_TOPOLOGY[name]
        outcome = DrillOutcome(plan=name, topology=topology)
        workdir = Path(tempfile.mkdtemp(prefix=f"repro-chaos-{name}-"))
        log(f"chaos: drilling {name} ({topology}) in {workdir}")
        started = time.monotonic()
        try:
            _DRILL_RUNNERS[topology](plan, reference, outcome, workdir)
        except Exception as exc:  # a drill must never kill its siblings
            outcome.failures.append(f"drill raised: {exc!r}")
        outcome.seconds = time.monotonic() - started
        _require(
            outcome,
            outcome.total_injected >= 1,
            "plan armed but no fault ever fired",
        )
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
        log(outcome.summary())
        outcomes.append(outcome)
    return outcomes
