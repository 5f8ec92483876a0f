"""One retry/backoff policy for every recovery path.

Before this module, each backend carried its own constants: the socket
worker hardcoded a 30 s connect timeout and a hand-rolled ``backoff * 2``
loop, the job queue counted attempts against a constant of its own, and
the artifact store retried nothing at all.
:class:`RetryPolicy` is the single source of truth they now share —
attempt caps, exponential backoff, per-operation timeouts — so "how hard
do we try" is one knob instead of five.

Jitter is **deterministic**: the fraction added to each delay is derived
from ``sha256(seed, attempt)``, not from a live RNG, so two runs of the
same drill back off on the same schedule and the chaos parity gates can
hold wall-clock-free invariants.  (Determinism matters here; the usual
thundering-herd argument for random jitter does not, because a repro
fleet is a handful of workers, not a million clients.)
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt caps, backoff schedule and socket timeouts, in one place.

    Attributes:
        max_attempts: total tries of an operation.  It is also the
            requeue budget of :class:`~repro.serve.AttackServer` and so
            of :class:`~repro.experiments.socketbus.SocketBus`: a job that
            has failed or lost its worker ``max_attempts`` times is
            failed for good.
        base_delay: delay before the first retry, seconds.
        multiplier: backoff growth factor per retry.
        max_delay: backoff ceiling, seconds.
        jitter: max deterministic jitter as a fraction of the delay
            (0.25 = up to +25 %).
        connect_timeout: socket ``connect()`` deadline, seconds.
        read_timeout: blocking socket read deadline, seconds — generous
            by default because the peer may legitimately be training a
            GNN between frames.
        seed: jitter stream selector (two policies with different seeds
            back off on different, but individually fixed, schedules).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    connect_timeout: float = 10.0
    read_timeout: float = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry *attempt* (1-based), jitter included."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if not self.jitter or not base:
            return base
        digest = hashlib.sha256(
            f"{self.seed}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter * fraction)

    def sleep(self, attempt: int) -> float:
        """Sleep the attempt's backoff; returns the seconds slept."""
        seconds = self.delay(attempt)
        if seconds:
            time.sleep(seconds)
        return seconds

    def call(
        self,
        fn,
        *,
        retry_on: tuple = (OSError,),
        describe: str = "operation",
        on_retry=None,
    ):
        """Run ``fn()`` with up to ``max_attempts`` tries.

        *retry_on* names the recoverable exception types; anything else
        propagates immediately.  *on_retry(attempt, exc, delay)* is
        called before each backoff sleep (the store counts retries and
        warns through it).  The final failure re-raises the last
        recoverable exception unchanged.
        """
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retry_on as exc:
                if attempt >= self.max_attempts:
                    raise
                seconds = self.delay(attempt)
                if on_retry is not None:
                    on_retry(attempt, exc, seconds)
                if seconds:
                    time.sleep(seconds)
        raise AssertionError(f"unreachable: {describe}")  # pragma: no cover
