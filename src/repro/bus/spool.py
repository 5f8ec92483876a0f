"""Filesystem spool-directory job bus.

Layout (all :mod:`repro.store.codec` files, atomic same-dir tmp + rename
writes; a spool written before codec 2 does not decode, so drain it
before upgrading)::

    <spool>/pending/<store_key>.npz      # enqueued job, waiting for a lease
    <spool>/leased/<store_key>.npz       # claimed; mtime is the heartbeat
    <spool>/quarantine/<store_key>.npz   # poisoned job + persisted traceback

The **lease** is an atomic ``os.rename`` from ``pending/`` to
``leased/``: exactly one worker wins a job, with no locks and no server.
While executing, the holder touches the leased file's mtime every few
seconds; a lease whose mtime goes stale (``stale_after``) is presumed
orphaned — its worker was SIGKILLed or lost power — and any other
process (coordinator or worker) *reaps* it back to ``pending/`` with the
attempt count bumped.  A job that fails or expires ``max_attempts``
times moves to ``quarantine/`` with the traceback persisted, so a
deterministic crash can never ping-pong between workers forever.

Results never travel through the spool: a worker executes
:func:`~repro.experiments.runner.execute_attack_job` and writes the
artifact into the shared :class:`~repro.store.ArtifactStore` under the
job's own ``store_key``.  The coordinator (:class:`SpoolBus`) simply
polls the store for its pending keys — which also adopts results
computed by workers that started *before* the coordinator, or by a
different coordinator sharing the spool.
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro import faults
from repro.bus.protocol import (
    BUS_JOB_KIND,
    BUS_QUARANTINE_KIND,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_POLL,
    DEFAULT_STALE_AFTER,
    BusError,
    JobBus,
    QuarantinedJob,
    RetryPolicy,
    encode_job,
)
from repro.store import codec
from repro.store.codec import CodecError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import AttackJob
    from repro.store import ArtifactStore

__all__ = ["SpoolBus", "SpoolDir"]


class SpoolDir:
    """The on-disk queue: enqueue / lease / heartbeat / requeue / quarantine."""

    def __init__(
        self,
        root: str | os.PathLike,
        stale_after: float = DEFAULT_STALE_AFTER,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.root = Path(root)
        self.stale_after = float(stale_after)
        self.max_attempts = int(max_attempts)
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")

    # -- paths ---------------------------------------------------------------
    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def leased_dir(self) -> Path:
        return self.root / "leased"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @staticmethod
    def _check_key(key: str) -> str:
        if not key or any(c in key for c in "/\\."):
            raise ValueError(f"malformed job key {key!r}")
        return key

    def _keys(self, directory: Path) -> list[str]:
        if not directory.is_dir():
            return []
        return sorted(p.stem for p in directory.glob("*.npz"))

    def pending_keys(self) -> list[str]:
        return self._keys(self.pending_dir)

    def leased_keys(self) -> list[str]:
        return self._keys(self.leased_dir)

    def quarantined_keys(self) -> list[str]:
        return self._keys(self.quarantine_dir)

    def attempts(self) -> dict[str, int]:
        """Attempt counter of every pending or leased job, by key.

        A counter above 0 means the job was requeued, whichever process
        reaped or failed it.  A file that moves mid-scan is skipped.
        """
        seen: dict[str, int] = {}
        for directory in (self.pending_dir, self.leased_dir):
            for path in directory.glob("*.npz"):
                try:
                    attempt = int(codec.load(path, kind=BUS_JOB_KIND)["attempt"])
                except (FileNotFoundError, CodecError):
                    continue
                seen[path.stem] = max(seen.get(path.stem, 0), attempt)
        return seen

    def referenced_keys(self) -> set[str]:
        """Store keys of in-flight jobs — ``repro cache gc`` must keep these.

        The spool file name *is* the job's attack store key, so the
        pending + leased stems are exactly the artifact addresses a
        worker is about to write / a coordinator is about to adopt.
        """
        return set(self.pending_keys()) | set(self.leased_keys())

    # -- queue operations ----------------------------------------------------
    def enqueue(self, key: str, job_payload: dict) -> bool:
        """Atomically add a job; ``False`` when it is already in flight."""
        self._check_key(key)
        if (
            (self.pending_dir / f"{key}.npz").exists()
            or (self.leased_dir / f"{key}.npz").exists()
            or (self.quarantine_dir / f"{key}.npz").exists()
        ):
            return False
        codec.dump(
            {"job": job_payload, "attempt": 0, "last_error": None},
            self.pending_dir / f"{key}.npz",
            kind=BUS_JOB_KIND,
        )
        return True

    def lease(self) -> tuple[str, dict] | None:
        """Claim one pending job, or ``None`` when the spool is idle."""
        batch = self.lease_batch(1)
        return batch[0] if batch else None

    def lease_batch(self, limit: int) -> list[tuple[str, dict]]:
        """Claim up to *limit* pending jobs from **one** directory scan.

        The sorted-scan + rename cost dominates spool overhead on small
        jobs (measured ~122 ms/job in ``bench_bus``), so a worker that
        can hold several leases amortizes the scan across all of them.
        The rename into ``leased/`` stays the mutual exclusion: losing a
        race surfaces as ``FileNotFoundError`` and the next candidate is
        tried.  An unreadable job file is quarantined on the spot (it
        can never execute, and leaving it would wedge every worker).
        Every claimed lease must keep heartbeating until completed or
        released — holders should size *limit* well inside what they can
        execute within ``stale_after``-spaced heartbeats.
        """
        if limit < 1:
            raise ValueError(f"lease batch limit must be >= 1, got {limit}")
        self.leased_dir.mkdir(parents=True, exist_ok=True)
        leased: list[tuple[str, dict]] = []
        for path in sorted(self.pending_dir.glob("*.npz")):
            if len(leased) >= limit:
                break
            if faults.fire("spool.lease_race"):
                continue  # injected: lose the rename race on this one
            target = self.leased_dir / path.name
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # another worker won this job
            # rename preserves the pending-file mtime, which already
            # looks stale to a reaper whenever the job sat queued longer
            # than stale_after — stamp lease birth *before* decoding, or
            # a concurrent reap_stale can steal the fresh lease.
            try:
                os.utime(target)  # heartbeat zero = lease birth
            except FileNotFoundError:
                continue  # reaped in the rename window; the reaper retries it
            try:
                payload = codec.load(target, kind=BUS_JOB_KIND)
            except FileNotFoundError:
                continue  # lost a reap race after all — not a poisoned job
            except CodecError as exc:
                self._quarantine_raw(
                    target, {"job": None}, 0, f"unreadable job file: {exc}"
                )
                continue
            leased.append((path.stem, payload))
        return leased

    def heartbeat(self, key: str) -> bool:
        """Refresh a held lease; ``False`` when it was reaped meanwhile."""
        try:
            os.utime(self.leased_dir / f"{key}.npz")
            return True
        except FileNotFoundError:
            return False

    def complete(self, key: str) -> None:
        """Drop a finished lease (the artifact already sits in the store)."""
        try:
            (self.leased_dir / f"{key}.npz").unlink()
        except FileNotFoundError:
            pass  # reaped while we executed; the requeued copy is harmless

    def fail(self, key: str, traceback_text: str) -> bool:
        """Report a failed execution; returns ``True`` when quarantined."""
        claimed = self._claim(self.leased_dir / f"{key}.npz")
        if claimed is None:
            return False  # reaped concurrently; the reaper owns the retry
        return self._requeue(claimed, traceback_text)

    def release(self, key: str, reason: str = "lease released") -> bool:
        """Return a held lease to pending (e.g. a proxied worker vanished)."""
        return self.fail(key, reason)

    def withdraw(self, key: str) -> bool:
        """Remove a pending job (the coordinator is taking it back)."""
        self._check_key(key)
        try:
            (self.pending_dir / f"{key}.npz").unlink()
            return True
        except FileNotFoundError:
            return False

    def reap_stale(self) -> int:
        """Requeue every lease whose heartbeat went stale; returns count.

        Rename-winner semantics, mirroring :meth:`lease`: two peers
        reaping the same expired lease concurrently bump the attempt
        counter exactly once.  The subtlety is that winning the claim
        rename does **not** prove the lease was still stale — between
        this reaper's staleness check and its rename, a peer may have
        already reaped the lease, a worker re-leased the requeued copy,
        and the freshly stamped lease landed back at the same path.  The
        claim rename preserves mtime, so the winner re-checks on the
        claimed file and hands a fresh lease straight back untouched.
        """
        cutoff = time.time() - self.stale_after
        reaped = 0
        for path in list(self.leased_dir.glob("*.npz")):
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
            except OSError:
                continue  # completed or claimed under us
            claimed = self._claim(path)
            if claimed is None:
                continue  # a peer reaper won this lease
            try:
                fresh = claimed.stat().st_mtime >= cutoff
            except OSError:  # pragma: no cover - racing orphan sweep
                continue
            if fresh:
                # Not stale after all (reaped + re-leased under us):
                # return it to the worker that owns it now.
                try:
                    os.rename(claimed, path)
                    continue
                except OSError:  # pragma: no cover - catastrophic fs
                    pass  # fall through: requeue rather than lose the job
            else:
                try:
                    # Stamp ownership of the claim: the orphan sweep
                    # below must not double-process a claim whose reaper
                    # is alive and mid-requeue.
                    os.utime(claimed)
                except OSError:
                    continue  # orphan-swept under us; that peer owns it
            self._requeue(
                claimed,
                f"lease expired (no heartbeat for > {self.stale_after:.0f}s; "
                "worker presumed dead)",
            )
            reaped += 1
        # Orphaned claims: a reaper that crashed between claiming and
        # requeueing would otherwise strand the job forever.  A live
        # claimer stamps its claim above, so only claims idle for a full
        # stale_after are adopted.
        for claim in list(self.leased_dir.glob("*.claim")):
            try:
                if claim.stat().st_mtime >= cutoff:
                    continue
            except OSError:
                continue
            self._requeue(
                claim,
                "reap claim orphaned (claiming peer presumed dead)",
            )
            reaped += 1
        return reaped

    def quarantined(self) -> list[QuarantinedJob]:
        """Decode every poisoned job (with its persisted traceback)."""
        out = []
        for path in sorted(self.quarantine_dir.glob("*.npz")):
            try:
                payload = codec.load(path, kind=BUS_QUARANTINE_KIND)
            except (CodecError, FileNotFoundError):
                continue
            out.append(
                QuarantinedJob(
                    key=path.stem,
                    attempts=int(payload["attempts"]),
                    traceback=str(payload["traceback"]),
                    payload=payload,
                )
            )
        return out

    # -- internals -----------------------------------------------------------
    def _claim(self, path: Path) -> Path | None:
        """Take exclusive ownership of a leased file (reaper-vs-worker race).

        The claim is another atomic rename, to a ``.claim`` name that no
        ``*.npz`` glob matches — whoever wins decides the job's fate,
        the loser backs off.
        """
        claim = path.with_name(f"{path.stem}.{uuid.uuid4().hex}.claim")
        try:
            os.rename(path, claim)
        except FileNotFoundError:
            return None
        return claim

    def _requeue(self, claimed: Path, error: str) -> bool:
        key = claimed.name.split(".", 1)[0]
        try:
            payload = codec.load(claimed, kind=BUS_JOB_KIND)
        except (CodecError, FileNotFoundError):
            payload = {"job": None, "attempt": self.max_attempts, "last_error": None}
        attempt = int(payload.get("attempt", 0)) + 1
        quarantined = attempt >= self.max_attempts
        if quarantined:
            self._quarantine_raw(claimed, payload, attempt, error)
        else:
            codec.dump(
                {"job": payload["job"], "attempt": attempt, "last_error": error},
                self.pending_dir / f"{key}.npz",
                kind=BUS_JOB_KIND,
            )
            claimed.unlink(missing_ok=True)
        return quarantined

    def _quarantine_raw(
        self, source: Path, payload: dict, attempts: int, error: str
    ) -> None:
        key = source.name.split(".", 1)[0]
        codec.dump(
            {"job": payload.get("job"), "attempts": attempts, "traceback": error},
            self.quarantine_dir / f"{key}.npz",
            kind=BUS_QUARANTINE_KIND,
        )
        source.unlink(missing_ok=True)


class SpoolBus(JobBus):
    """Coordinator side of the spool: enqueue, poll the store, adopt.

    The coordinator performs no attack compute in this mode — N
    ``repro worker --bus-dir`` processes (this host or any host sharing
    the directory and the store) do — but it *does* housekeep: every
    poll cycle reaps stale leases and checks for quarantined jobs, so a
    dead worker cannot stall the grid and a poisoned job surfaces its
    stored traceback instead of looping forever.
    """

    name = "spool"

    def __init__(
        self,
        spool: SpoolDir | str | os.PathLike,
        store: "ArtifactStore | str | os.PathLike",
        poll: float = DEFAULT_POLL,
        timeout: float | None = None,
        liveness: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__()
        from repro.store import resolve_store

        self.spool = spool if isinstance(spool, SpoolDir) else SpoolDir(spool)
        self.store = resolve_store(store)
        if self.store is None:
            raise BusError("spool bus needs a shared artifact store")
        self.poll = float(poll)
        self.timeout = timeout
        # Graceful-degradation deadline: None/0 disables fail-over.
        self.liveness = float(liveness) if liveness else None
        self.retry = retry if retry is not None else RetryPolicy()

    def run(
        self, jobs: "list[AttackJob]"
    ) -> "Iterator[tuple[AttackJob, dict, bool]]":
        t0 = time.perf_counter()
        waiting: dict[str, AttackJob] = {}
        for job in jobs:
            # Transient spool-write failures (ENOSPC, flaky mount) are
            # retried on the shared backoff schedule; enqueue itself is
            # atomic (tmp + rename), so a failed attempt leaves nothing.
            self.retry.call(
                lambda j=job: self.spool.enqueue(j.store_key, encode_job(j)),
                retry_on=(OSError,),
                describe="spool enqueue",
            )
            waiting[job.store_key] = job
            self.stats.submitted += 1
        self.stats.submit_seconds += time.perf_counter() - t0

        last_progress = time.monotonic()
        while waiting:
            t0 = time.perf_counter()
            progressed = False
            for key in list(waiting):
                kind = getattr(waiting[key], "artifact_kind", "attacks")
                if not self.store.has(kind, key):
                    continue
                payload = self.store.get(kind, key)
                if payload is None:
                    # A worker published a torn/corrupt artifact: drop it
                    # and put the job back on the queue instead of
                    # polling the bad file forever.
                    self.store.path_for(kind, key).unlink(missing_ok=True)
                    self.spool.enqueue(key, encode_job(waiting[key]))
                    continue
                job = waiting.pop(key)
                self.stats.completed += 1
                self.stats.adopted += 1
                progressed = True
                self.stats.adopt_seconds += time.perf_counter() - t0
                yield job, payload, True
                t0 = time.perf_counter()
            for poisoned in self.spool.quarantined():
                if poisoned.key in waiting:
                    self.stats.quarantined += 1
                    raise BusError(
                        f"job {poisoned.key[:12]}… quarantined after "
                        f"{poisoned.attempts} attempt(s); persisted worker "
                        f"traceback:\n{poisoned.traceback}"
                    )
            self.stats.requeues += self.spool.reap_stale()
            self.stats.adopt_seconds += time.perf_counter() - t0
            if not waiting:
                break
            now = time.monotonic()
            if progressed or self.spool.leased_keys():
                last_progress = now  # a live lease counts as progress
            else:
                quiet = now - last_progress
                if self.timeout is not None and quiet > self.timeout:
                    raise BusError(
                        f"spool bus made no progress for {self.timeout:.0f}s "
                        f"— {len(waiting)} job(s) still pending and no live "
                        f"leases; are any `repro worker --bus-dir "
                        f"{self.spool.root}` processes running?"
                    )
                if self.liveness is not None and quiet > self.liveness:
                    # Graceful degradation: the worker fleet is dead or
                    # was never started.  Take the jobs back from the
                    # spool and finish the grid in this process — a
                    # figure run must never hang on a silent bus.
                    remaining = list(waiting.values())
                    for key in waiting:
                        self.spool.withdraw(key)
                    waiting.clear()
                    yield from self._failover(
                        remaining,
                        f"no worker progress for {self.liveness:.0f}s",
                    )
                    return
            time.sleep(self.poll)
