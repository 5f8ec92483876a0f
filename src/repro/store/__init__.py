"""Content-addressed on-disk artifact store.

Layout::

    <root>/v<SCHEMA_VERSION>/<kind>/<key[:2]>/<key>.npz

where *key* is a sha256 content address (see
:mod:`repro.store.artifacts` for how lock and attack keys are derived)
and every file is a versioned flat codec blob written by
:mod:`repro.store.codec` (the ``.npz`` suffix is historical: schema 1
files were npz archives).  The schema version is part of the path, so a
schema bump simply stops *seeing* old entries — they are never
misdecoded, and ``repro cache gc`` reclaims them by age.  Schema 2 is
the flat codec; keys did not move, so a v1 store recomputes each entry
once under ``v2/`` while ``v1/`` waits for ``gc``.

Operational properties:

* **atomic writes** — same-directory tmp file + ``os.replace``; two
  runners sharing one store can race on the same key and a reader never
  observes a torn file;
* **corruption-tolerant reads** — a truncated / garbage / wrong-kind
  file produces a warning and a cache miss (the caller recomputes and
  rewrites), never an exception;
* **LRU-ish ages** — a successful read touches the file's mtime, so
  ``gc --keep-days`` keeps hot artifacts and drops stale ones;
* **instrumented** — :class:`StoreStats` counts hits / misses / bytes,
  surfaced by ``repro figures`` and ``repro cache stats``.

``REPRO_STORE=<dir>`` (or ``repro figures --store``) points every
runner, bench and CLI invocation at one shared pool; see
:func:`resolve_store`.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.faults import RetryPolicy
from repro.settings import setting
from repro.store import codec
from repro.store.artifacts import (
    attack_store_key,
    baseline_config_token,
    baseline_store_key,
    circuit_digest,
    config_token,
    decode_attack_artifact,
    decode_baseline_artifact,
    decode_circuit,
    decode_lock_artifact,
    encode_attack_artifact,
    encode_baseline_artifact,
    encode_circuit,
    encode_lock_artifact,
    lock_store_key,
)
from repro.store.codec import CodecError

__all__ = [
    "ArtifactStore",
    "REMOTE_SCHEME",
    "SCHEMA_VERSION",
    "StoreEntry",
    "StoreStats",
    "attack_store_key",
    "baseline_config_token",
    "baseline_store_key",
    "circuit_digest",
    "codec",
    "config_token",
    "decode_attack_artifact",
    "decode_baseline_artifact",
    "decode_circuit",
    "decode_lock_artifact",
    "encode_attack_artifact",
    "encode_baseline_artifact",
    "encode_circuit",
    "encode_lock_artifact",
    "lock_store_key",
    "resolve_store",
]

#: On-disk layout version.  Bumping it makes existing entries invisible
#: (they live under the old ``v<N>`` directory), not fatal.  2: the flat
#: codec replaced npz archives.
SCHEMA_VERSION = 2

#: Store-path prefix selecting the network-backed store:
#: ``remote://host:port`` opens a :class:`repro.store.remote.RemoteStore`
#: speaking the serve wire protocol instead of a local directory.
REMOTE_SCHEME = "remote://"


@dataclass
class StoreStats:
    """Read/write counters for one :class:`ArtifactStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0
    write_retries: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def summary(self) -> str:
        # Recovery counters appear only when nonzero: the parity gates
        # diff clean-vs-drilled transcripts with bookkeeping masked, and
        # a clean run's summary must not change shape.
        return (
            f"{self.hits} hits {self.misses} misses {self.writes} writes "
            f"({_human_bytes(self.bytes_read)} in, "
            f"{_human_bytes(self.bytes_written)} out"
            + (f", {self.errors} corrupt" if self.errors else "")
            + (
                f", {self.write_retries} write-retries"
                if self.write_retries
                else ""
            )
            + ")"
        )


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk artifact (as listed by ``repro cache ls``)."""

    kind: str
    key: str
    path: Path
    size: int
    mtime: float
    schema: int


def _human_bytes(n: int | float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}GiB"  # pragma: no cover - unreachable


class ArtifactStore:
    """Content-addressed npz artifact store rooted at *root*."""

    def __init__(
        self,
        root: str | os.PathLike,
        schema: int = SCHEMA_VERSION,
        retry: RetryPolicy | None = None,
    ):
        self.root = Path(root)
        self.schema = int(schema)
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = StoreStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r}, schema={self.schema})"

    # -- paths --------------------------------------------------------------
    @property
    def schema_dir(self) -> Path:
        return self.root / f"v{self.schema}"

    def path_for(self, kind: str, key: str) -> Path:
        if not key or any(c in key for c in "/\\."):
            raise ValueError(f"malformed artifact key {key!r}")
        return self.schema_dir / kind / key[:2] / f"{key}.npz"

    # -- read/write ---------------------------------------------------------
    def get(self, kind: str, key: str, decoder=None) -> Any | None:
        """Decode the artifact at (*kind*, *key*), or ``None`` on a miss.

        Corrupt, truncated or wrong-kind files count as misses: the
        store warns, records the error, and the caller recomputes (the
        rewrite then replaces the bad file).  An optional *decoder* is
        applied to the payload under the same policy — a payload that
        does not decode into its domain object is a miss too — so every
        consumer (runner, ``run_muxlink``, a future remote scheduler)
        shares one corruption-tolerance path.
        """
        path = self.path_for(kind, key)
        try:
            payload = codec.load(path, kind=kind)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except CodecError as exc:
            return self._discard(kind, f"unreadable ({exc})")
        if decoder is not None:
            try:
                payload = decoder(payload)
            except Exception as exc:
                return self._discard(kind, f"undecodable payload ({exc})")
        self.stats.hits += 1
        try:
            self.stats.bytes_read += path.stat().st_size
            os.utime(path)  # LRU signal for ``gc --keep-days``
        except OSError:  # pragma: no cover - racing gc/delete
            pass
        return payload

    def _discard(self, kind: str, reason: str) -> None:
        warnings.warn(
            f"artifact store: discarding unreadable {kind} entry "
            f"— {reason}; recomputing",
            RuntimeWarning,
            stacklevel=3,
        )
        self.stats.misses += 1
        self.stats.errors += 1
        return None

    def put(self, kind: str, key: str, payload: Any) -> Path:
        """Atomically persist *payload* under (*kind*, *key*).

        Transient write failures (ENOSPC while gc frees room, a flaky
        network mount) are retried on the store's
        :class:`~repro.faults.RetryPolicy` backoff schedule; the tmp
        file + ``os.replace`` protocol in :func:`repro.store.codec.dump`
        guarantees a failed attempt publishes nothing, so a retry never
        races its own debris.  The final failure propagates — the entry
        is simply absent, never partial.
        """
        path = self.path_for(kind, key)

        def _on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            self.stats.write_retries += 1
            warnings.warn(
                f"artifact store: write of {kind}/{key[:12]}… failed "
                f"({exc}); retry {attempt + 1}/{self.retry.max_attempts} "
                f"in {delay:.2f}s",
                RuntimeWarning,
                stacklevel=3,
            )

        self.retry.call(
            lambda: codec.dump(payload, path, kind=kind),
            retry_on=(OSError,),
            describe=f"store write {kind}/{key[:12]}",
            on_retry=_on_retry,
        )
        self.stats.writes += 1
        try:
            self.stats.bytes_written += path.stat().st_size
        except OSError:  # pragma: no cover - racing gc/delete
            pass
        return path

    def has(self, kind: str, key: str) -> bool:
        return self.path_for(kind, key).exists()

    # -- maintenance --------------------------------------------------------
    def entries(self, all_schemas: bool = False) -> Iterator[StoreEntry]:
        """Yield artifacts of this schema (or of every schema dir)."""
        if not self.root.is_dir():
            return
        for schema_dir in sorted(self.root.glob("v*")):
            if not schema_dir.is_dir():
                continue
            try:
                schema = int(schema_dir.name[1:])
            except ValueError:
                continue
            if not all_schemas and schema != self.schema:
                continue
            for path in sorted(schema_dir.glob("*/*/*.npz")):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - racing delete
                    continue
                yield StoreEntry(
                    kind=path.parent.parent.name,
                    key=path.stem,
                    path=path,
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                    schema=schema,
                )

    def gc(self, keep_days: float) -> tuple[int, int]:
        """Drop artifacts not touched for *keep_days* days.

        Entries under *other* schema versions are subject to the same age
        rule (they are unreachable, but deleting a concurrent writer's
        fresh work would be hostile), and stray ``*.tmp`` files from
        crashed writers are removed once they are over an hour old — a
        live writer holds its tmp file for seconds, so gc never races an
        in-flight ``os.replace``.  Returns ``(files_removed,
        bytes_freed)``.
        """
        if keep_days < 0:
            raise ValueError(f"keep_days must be >= 0, got {keep_days}")
        cutoff = time.time() - keep_days * 86400.0
        removed = 0
        freed = 0
        for entry in list(self.entries(all_schemas=True)):
            if entry.mtime < cutoff:
                try:
                    entry.path.unlink()
                except OSError:  # pragma: no cover - racing delete
                    continue
                removed += 1
                freed += entry.size
        if self.root.is_dir():
            tmp_cutoff = time.time() - 3600.0
            for tmp in self.root.rglob("*.tmp"):
                try:
                    stat = tmp.stat()
                    if stat.st_mtime >= tmp_cutoff:
                        continue  # possibly a live writer's in-flight file
                    tmp.unlink()
                except OSError:  # pragma: no cover - racing writer
                    continue
                removed += 1
                freed += stat.st_size
            # Prune directories emptied by the sweep (leaves first).
            for directory in sorted(
                (d for d in self.root.rglob("*") if d.is_dir()),
                key=lambda d: len(d.parts),
                reverse=True,
            ):
                try:
                    directory.rmdir()
                except OSError:
                    pass
        return removed, freed

    def verify(self, delete: bool = False) -> list[StoreEntry]:
        """Decode every entry; return (and optionally delete) corrupt ones."""
        corrupt: list[StoreEntry] = []
        for entry in self.entries():
            try:
                codec.load(entry.path, kind=entry.kind)
            except (CodecError, OSError):
                corrupt.append(entry)
                if delete:
                    try:
                        entry.path.unlink()
                    except OSError:  # pragma: no cover - racing delete
                        pass
        return corrupt


def resolve_store(
    store: "ArtifactStore | str | os.PathLike | None",
) -> ArtifactStore | None:
    """Resolve a store argument: instance, path, or the environment.

    ``None`` or a blank string consults the ``REPRO_STORE`` setting
    (unset means *no store*), a string/path opens that directory,
    ``remote://host:port`` opens a
    :class:`~repro.store.remote.RemoteStore` against a ``repro serve``
    process, and an :class:`ArtifactStore` passes through — the scheme
    every entry point shares
    (:class:`~repro.experiments.runner.ExperimentRunner`,
    ``repro figures --store``, the bench suite).
    """
    if isinstance(store, ArtifactStore):
        return store
    store = setting("REPRO_STORE", store)
    if store is None:
        return None
    text = os.fspath(store).strip()
    if text.startswith(REMOTE_SCHEME):
        # Late import: repro.store.remote pulls in the bus wire helpers,
        # which import this module back.
        from repro.store.remote import RemoteStore

        return RemoteStore(text[len(REMOTE_SCHEME) :])
    return ArtifactStore(text)
