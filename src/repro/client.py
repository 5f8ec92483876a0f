"""Client side of attack-as-a-service: talk to a ``repro serve`` process.

:class:`ServeClient` computes the **same content key the runner would**
(:func:`~repro.store.artifacts.circuit_digest` of the locked netlist +
the normalized config token) and submits the same
:func:`~repro.bus.protocol.encode_job` payload — so a served prediction
is bit-identical to ``repro attack`` by construction, a key the server
already holds returns without training, and an identical request in
flight coalesces.

Typical use (see ``examples/serve_client.py``)::

    from repro.client import ServeClient

    client = ServeClient("127.0.0.1:7764")
    result = client.attack(locked.circuit, config)   # MuxLinkResult
    key = client.predict_key(locked.circuit, config) # just the key bits

Module-level :func:`submit` / :func:`result` / :func:`predict_key`
helpers wrap a one-shot client for scripts.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.bus.protocol import RetryPolicy, encode_job
from repro.serve.server import ServeError
from repro.store.artifacts import (
    attack_store_key,
    circuit_digest,
    decode_attack_artifact,
    decode_baseline_artifact,
    encode_circuit,
)
from repro.wire import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core import MuxLinkConfig, MuxLinkResult

__all__ = ["ServeClient", "predict_key", "result", "submit"]

#: ``result`` frame kind → artifact decoder.
_DECODERS = {
    "attacks": decode_attack_artifact,
    "baselines": decode_baseline_artifact,
}


class ServeClient:
    """One persistent connection to a ``repro serve`` endpoint.

    Thread-safe (one request/reply exchange at a time); transient socket
    failures — including the server's injected ``serve.accept_drop`` —
    reconnect and retry on the shared
    :class:`~repro.faults.RetryPolicy` backoff.
    """

    def __init__(
        self, address: str, retry: RetryPolicy | None = None
    ) -> None:
        self._channel = Channel(address, retry=retry, name="serve")
        self.address = self._channel.address

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request construction ------------------------------------------------
    @staticmethod
    def job_for(circuit, config: "MuxLinkConfig"):
        """The exact :class:`AttackJob` the runner would build."""
        from repro.experiments.runner import AttackJob

        key = attack_store_key(circuit_digest(circuit), config)
        return AttackJob(
            store_key=key, circuit=encode_circuit(circuit), config=config
        )

    @staticmethod
    def predict_store_key(circuit, config: "MuxLinkConfig") -> str:
        """The content address a submit of (circuit, config) lands under."""
        return attack_store_key(circuit_digest(circuit), config)

    # -- protocol ------------------------------------------------------------
    def submit_job(self, job, wait: bool = False) -> dict:
        """Low-level submit of an encoded-job carrier; returns accept frame.

        With ``wait=True`` the server follows the accept frame with the
        result frame once available; collect it with :meth:`result`.
        """
        return self._channel.exchange(
            {
                "op": "submit",
                "key": job.store_key,
                "job": encode_job(job),
                "wait": wait,
            },
            ("accepted",),
            expect_key=job.store_key,
        )

    def submit(
        self, circuit, config: "MuxLinkConfig", wait: bool = False
    ) -> tuple[str, str]:
        """Submit an attack request; returns ``(store_key, status)``.

        *status* is ``hit`` (artifact already warm), ``coalesced``
        (identical request already training) or ``queued``.  A job the
        server cannot decode raises :class:`ServeError` with its reason.
        """
        job = self.job_for(circuit, config)
        reply = self.submit_job(job, wait=wait)
        if reply.get("status") == "rejected":
            raise ServeError(
                f"serve request {job.store_key[:12]}… rejected:\n"
                f"{reply.get('error')}"
            )
        return job.store_key, str(reply.get("status", ""))

    def result(
        self, key: str, kind: str = "attacks", timeout: float | None = None
    ) -> Any:
        """Block until *key*'s artifact exists; return the decoded object.

        Issues a ``wait`` op (idempotent — safe after a ``submit`` with
        or without ``wait=True``); *timeout* bounds the total wait, on
        top of the per-read socket timeout.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while True:
            try:
                reply = self._channel.exchange(
                    {"op": "wait", "key": key, "kind": kind},
                    ("result",),
                    expect_key=key,
                )
            except OSError:
                if deadline is not None and time.monotonic() > deadline:
                    raise ServeError(
                        f"no result for {key[:12]}… within {timeout:.0f}s"
                    )
                continue
            if not reply.get("ok"):
                raise ServeError(
                    f"serve request {key[:12]}… failed:\n"
                    f"{reply.get('error')}"
                )
            payload = reply["result"]
            decoder = _DECODERS.get(str(reply.get("kind", kind)))
            return decoder(payload) if decoder else payload

    def attack(self, circuit, config: "MuxLinkConfig") -> "MuxLinkResult":
        """Submit + wait: the served equivalent of ``run_muxlink``."""
        key, _ = self.submit(circuit, config, wait=False)
        return self.result(key, kind="attacks")

    def predict_key(self, circuit, config: "MuxLinkConfig") -> str:
        """The predicted key bits at ``config.threshold``.

        The content key normalizes the threshold out (a stored artifact
        rescores post-hoc), so the prediction is recomputed from the
        served likelihoods at the *requested* threshold — exactly what
        the runner does for threshold-sweep cells.
        """
        from repro.core.muxlink import rescore_key

        return rescore_key(self.attack(circuit, config), config.threshold)

    def stats(self) -> dict:
        """The server's :class:`~repro.serve.server.ServeStats` counters."""
        return self._channel.exchange({"op": "stats"}, ("stats",))["stats"]

    def ping(self) -> bool:
        reply = self._channel.exchange({"op": "ping"}, ("pong",))
        return reply.get("op") == "pong"

    def shutdown(self) -> None:
        """Ask the server to exit its loop (used by benches and CI)."""
        try:
            self._channel.exchange({"op": "shutdown"}, ("bye",))
        except OSError:  # pragma: no cover - server died before replying
            pass
        self.close()


# ---------------------------------------------------------------------------
# One-shot conveniences
# ---------------------------------------------------------------------------
def submit(address: str, circuit, config) -> tuple[str, str]:
    """Fire-and-forget submit; returns ``(store_key, status)``."""
    with ServeClient(address) as client:
        return client.submit(circuit, config)


def result(address: str, key: str, kind: str = "attacks", timeout=None):
    """Fetch (blocking) the decoded artifact for a submitted key."""
    with ServeClient(address) as client:
        return client.result(key, kind=kind, timeout=timeout)


def predict_key(address: str, circuit, config) -> str:
    """Submit + wait + rescore: the one-call served key prediction."""
    with ServeClient(address) as client:
        return client.predict_key(circuit, config)
