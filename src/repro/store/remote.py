"""Network-backed artifact store speaking the serve wire protocol.

``RemoteStore("host:port")`` duck-types the read/write subset of
:class:`repro.store.ArtifactStore` (``get`` / ``put`` / ``has`` +
``stats``) against a ``repro serve`` process, so workers and clients on
other hosts share one artifact pool with **no shared filesystem**.  The
wire format is the job bus framing (4-byte length + codec blob), and the
blobs themselves are byte-for-byte the npz images the server's on-disk
store holds — content addressing makes that exchange trivially cachable,
so the client keeps an LRU of raw blob bytes (capped by total size,
*cache_bytes*, default :data:`DEFAULT_CACHE_BYTES`) and a warm ``get``
decodes locally without touching the network.

Failure semantics mirror the local store: a corrupt blob warns and reads
as a miss (the caller recomputes and rewrites), transient socket errors
retry on the shared :class:`~repro.faults.RetryPolicy` backoff with a
fresh connection per attempt (one :class:`repro.wire.Channel`), and the
``remote_store.read_timeout`` fault site injects exactly the mid-read
timeout the chaos drill needs.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from typing import Any

from repro.errors import ReproError
from repro.faults.retry import RetryPolicy
from repro.store import StoreStats, codec
from repro.store.codec import CodecError
from repro.wire import Channel

__all__ = ["RemoteStore", "RemoteStoreError"]

#: Client-side blob-cache budget (total raw bytes).
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


class RemoteStoreError(ReproError):
    """The remote store endpoint refused a write."""


class RemoteStore:
    """Read/write artifact access against a ``repro serve`` endpoint."""

    def __init__(
        self,
        address: str,
        retry: RetryPolicy | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self._channel = Channel(address, retry=retry, name="remote store")
        self.root = f"remote://{self._channel.address}"
        self.stats = StoreStats()
        self._cache_budget = int(cache_bytes)
        self._cache: OrderedDict[tuple[str, str], bytes] = OrderedDict()
        self._cache_bytes = 0
        self._lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteStore({self.root!r})"

    def close(self) -> None:
        self._channel.close()

    def _round_trip(self, payload: dict, expect: str) -> dict:
        """One request/reply exchange, reconnect-and-retried on OSError."""
        return self._channel.exchange(
            payload,
            (expect,),
            expect_key=payload["key"],
            fault_site="remote_store.read_timeout",
        )

    # -- blob cache ----------------------------------------------------------
    def _cache_put(self, kind: str, key: str, blob: bytes) -> None:
        if len(blob) > self._cache_budget:
            return
        entry = (kind, key)
        old = self._cache.pop(entry, None)
        if old is not None:
            self._cache_bytes -= len(old)
        self._cache[entry] = blob
        self._cache_bytes += len(blob)
        while self._cache_bytes > self._cache_budget:
            _, evicted = self._cache.popitem(last=False)
            self._cache_bytes -= len(evicted)

    # -- store surface -------------------------------------------------------
    def get(self, kind: str, key: str, decoder=None) -> Any | None:
        """Fetch + decode, LRU-first; corrupt blobs read as misses."""
        with self._lock:
            blob = self._cache.get((kind, key))
            if blob is not None:
                self._cache.move_to_end((kind, key))
        if blob is None:
            reply = self._round_trip(
                {"op": "store-get", "kind": kind, "key": key}, "store-blob"
            )
            if not reply.get("found"):
                self.stats.misses += 1
                return None
            blob = reply["blob"].tobytes()
        try:
            payload = codec.loads(blob, kind=kind)
        except CodecError as exc:
            return self._discard(kind, key, f"unreadable ({exc})")
        if decoder is not None:
            try:
                payload = decoder(payload)
            except Exception as exc:
                return self._discard(kind, key, f"undecodable payload ({exc})")
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        with self._lock:
            self._cache_put(kind, key, blob)
        return payload

    def _discard(self, kind: str, key: str, reason: str) -> None:
        with self._lock:
            old = self._cache.pop((kind, key), None)
            if old is not None:
                self._cache_bytes -= len(old)
        warnings.warn(
            f"remote store: discarding unreadable {kind} entry — {reason}; "
            "recomputing",
            RuntimeWarning,
            stacklevel=3,
        )
        self.stats.misses += 1
        self.stats.errors += 1
        return None

    def put(self, kind: str, key: str, payload: Any) -> None:
        """Write-through: the server persists, the client caches bytes."""
        import numpy as np

        blob = codec.dumps(payload, kind=kind)
        reply = self._round_trip(
            {
                "op": "store-put",
                "kind": kind,
                "key": key,
                "blob": np.frombuffer(blob, dtype=np.uint8),
            },
            "store-ok",
        )
        if not reply.get("ok"):
            raise RemoteStoreError(
                f"remote store refused write {kind}/{key[:12]}…: "
                f"{reply.get('error')}"
            )
        self.stats.writes += 1
        self.stats.bytes_written += len(blob)
        with self._lock:
            self._cache_put(kind, key, blob)

    def has(self, kind: str, key: str) -> bool:
        with self._lock:
            if (kind, key) in self._cache:
                return True
        reply = self._round_trip(
            {"op": "store-has", "kind": kind, "key": key}, "store-has"
        )
        return bool(reply.get("has"))
