"""Seeded, deterministic fault injection for the bus/store/worker stack.

A :class:`FaultPlan` arms a set of named **sites** — fixed points in the
production code (``repro.store.codec``, the spool, the serve worker)
that consult :func:`fire` on every pass.  When no plan is active the
check is a dict lookup against an empty map: the production hot path
pays nothing.  When a plan *is* active, each armed site fires a bounded,
reproducible number of times; probabilistic sites draw from a
``numpy.random.SeedSequence`` keyed by ``(plan seed, site name)``, so
the same plan injects the same faults in the same order on every run —
which is what lets ``repro chaos`` assert that the recovered output is
bit-identical to a clean run.

Worker subprocesses activate a plan through the ``REPRO_FAULT_PLAN``
environment variable (the plan's JSON form, see :meth:`FaultPlan.dumps`)
— real multi-process drills SIGKILL real workers.  In-process tests use
:func:`activate` / :func:`deactivate` directly.

Every fire prints a ``fault[<site>]`` line to stderr, so a drill driver
can count injections from worker logs without any side channel.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.settings import setting

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "FaultError",
    "FaultPlan",
    "FaultSite",
    "NAMED_PLANS",
    "activate",
    "active_plan",
    "deactivate",
    "fire",
    "fired_counts",
    "named_fault_plan",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Every injectable site and what firing it does.  A plan naming an
#: unknown site is rejected at construction — a typo must not silently
#: disarm a drill.
FAULT_SITES = {
    "store.write_torn": (
        "codec dump truncates its tmp file mid-write and raises EIO"
    ),
    "store.write_enospc": "codec dump raises ENOSPC before writing a byte",
    "store.read_corrupt": "codec load reports an existing file as corrupt",
    "socket.connect_refused": "serve worker connect() is refused",
    "socket.read_timeout": "serve worker frame read raises a timeout",
    "socket.frame_eof": "serve worker hangs up holding a pushed job (EOF)",
    "spool.lease_race": "lease() loses the pending->leased rename race",
    "spool.heartbeat_stall": "the lease heartbeat thread stops beating",
    "worker.crash_after_n": "worker os._exit(137)s mid-job (SIGKILL-alike)",
    "worker.slow_factor": "worker stalls `param` seconds before executing",
    "serve.accept_drop": (
        "the serve front-end drops an accepted connection before reading"
    ),
    "remote_store.read_timeout": "a RemoteStore round-trip raises a timeout",
}

#: The named plans ``repro chaos --plan`` accepts (site specs only; the
#: process topology each drill needs lives in ``repro.faults.chaos``).
NAMED_PLANS = (
    "worker-crash",
    "socket-flaky",
    "torn-store",
    "enospc",
    "heartbeat-stall",
    "lease-race",
    "all-workers-die",
    "serve-flaky",
)


class FaultError(ReproError):
    """A fault plan is malformed (unknown site, bad JSON, bad spec)."""


@dataclass(frozen=True)
class FaultSite:
    """One armed site inside a plan.

    Attributes:
        site: a :data:`FAULT_SITES` name.
        times: fire budget (``-1`` = unlimited).  A site out of budget
            passes through — which is exactly how recovery paths get
            exercised *and then succeed*.
        after: skip the first *after* eligible passes (fire on pass
            ``after + 1``), e.g. "crash on the second job".
        p: probability of firing an eligible pass (drawn from the
            plan-seeded stream; 1.0 = always).
        param: site-specific magnitude (``worker.slow_factor`` sleeps
            this many seconds).
    """

    site: str
    times: int = 1
    after: int = 0
    p: float = 1.0
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultError(
                f"unknown fault site {self.site!r}; choose from "
                f"{sorted(FAULT_SITES)}"
            )
        if self.after < 0:
            raise FaultError(f"after must be >= 0, got {self.after}")
        if not 0.0 <= self.p <= 1.0:
            raise FaultError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of armed sites (JSON-round-trippable)."""

    name: str
    sites: tuple[FaultSite, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        seen = set()
        for spec in self.sites:
            if spec.site in seen:
                raise FaultError(
                    f"plan {self.name!r} arms {spec.site!r} twice"
                )
            seen.add(spec.site)

    def dumps(self) -> str:
        """JSON form, for ``REPRO_FAULT_PLAN`` in worker environments."""
        return json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "sites": [
                    {
                        "site": s.site,
                        "times": s.times,
                        "after": s.after,
                        "p": s.p,
                        "param": s.param,
                    }
                    for s in self.sites
                ],
            },
            separators=(",", ":"),
        )

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
            return cls(
                name=str(raw["name"]),
                seed=int(raw.get("seed", 0)),
                sites=tuple(
                    FaultSite(**spec) for spec in raw.get("sites", ())
                ),
            )
        except FaultError:
            raise
        except Exception as exc:
            raise FaultError(f"malformed fault plan JSON: {exc}") from exc

    def site_seed_sequence(self, site: str) -> np.random.SeedSequence:
        """The site's dedicated stream, keyed by plan seed + site name."""
        digest = int.from_bytes(
            hashlib.sha256(site.encode()).digest()[:4], "big"
        )
        return np.random.SeedSequence(entropy=self.seed, spawn_key=(digest,))


class _ActivePlan:
    """Runtime state of one activated plan (check counters, fire budget).

    Thread-safe: the spool heartbeat daemon and the worker main loop may
    consult sites concurrently.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._sites = {spec.site: spec for spec in plan.sites}
        self._lock = threading.Lock()
        self._checks: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._rng: dict[str, np.random.Generator] = {}

    def check(self, site: str) -> FaultSite | None:
        spec = self._sites.get(site)
        if spec is None:
            return None
        with self._lock:
            n = self._checks.get(site, 0) + 1
            self._checks[site] = n
            if n <= spec.after:
                return None
            if spec.times >= 0 and self._fired.get(site, 0) >= spec.times:
                return None
            if spec.p < 1.0:
                rng = self._rng.get(site)
                if rng is None:
                    rng = np.random.default_rng(
                        self.plan.site_seed_sequence(site)
                    )
                    self._rng[site] = rng
                if rng.random() >= spec.p:
                    return None
            self._fired[site] = self._fired.get(site, 0) + 1
            hit = self._fired[site]
        print(
            f"fault[{site}]: fired (hit {hit}, plan {self.plan.name}, "
            f"pid {os.getpid()})",
            file=sys.stderr,
            flush=True,
        )
        return spec

    def fired(self) -> dict[str, int]:
        with self._lock:
            return dict(self._fired)


_active: _ActivePlan | None = None
_env_checked = False


def activate(plan: FaultPlan) -> None:
    """Arm *plan* in this process (replacing any previous plan)."""
    global _active, _env_checked
    _env_checked = True
    _active = _ActivePlan(plan)


def deactivate() -> None:
    """Disarm fault injection in this process (idempotent)."""
    global _active, _env_checked
    _env_checked = True
    _active = None


def active_plan() -> FaultPlan | None:
    """The armed plan, if any (after a lazy ``REPRO_FAULT_PLAN`` parse)."""
    _ensure_env_plan()
    return _active.plan if _active is not None else None


def fired_counts() -> dict[str, int]:
    """``site -> times fired`` so far in this process."""
    return _active.fired() if _active is not None else {}


def _ensure_env_plan() -> None:
    global _env_checked
    if _env_checked:
        return
    _env_checked = True
    raw = setting(FAULT_PLAN_ENV)
    if raw:
        activate(FaultPlan.loads(raw))


def fire(site: str) -> FaultSite | None:
    """Consult *site*; returns its armed spec iff the fault fires now.

    The one call every instrumented code path makes.  With no plan
    active (the production case) this is a cached-global check and an
    immediate ``None``.
    """
    if _active is None:
        if _env_checked:
            return None
        _ensure_env_plan()
        if _active is None:
            return None
    return _active.check(site)


# ---------------------------------------------------------------------------
# Named plans
# ---------------------------------------------------------------------------
def named_fault_plan(name: str, seed: int = 0) -> FaultPlan:
    """The site specs behind each ``repro chaos --plan`` name."""
    if name == "worker-crash":
        # One worker dies mid-job (SIGKILL-alike); a peer must reap the
        # lease and finish the grid.
        sites = (FaultSite("worker.crash_after_n", times=1),)
    elif name == "all-workers-die":
        # EVERY worker dies on its first job: only the coordinator's
        # liveness fail-over can finish the grid.
        sites = (FaultSite("worker.crash_after_n", times=-1),)
    elif name == "socket-flaky":
        sites = (
            FaultSite("socket.connect_refused", times=2),
            FaultSite("socket.read_timeout", times=1),
            FaultSite("socket.frame_eof", times=1),
        )
    elif name == "torn-store":
        sites = (
            FaultSite("store.write_torn", times=1),
            FaultSite("store.read_corrupt", times=1),
        )
    elif name == "enospc":
        sites = (FaultSite("store.write_enospc", times=2),)
    elif name == "heartbeat-stall":
        # The heartbeat dies while the job keeps (slowly) running: the
        # lease goes stale and is reaped, a peer re-executes, and the
        # stalled worker's eventual finish is a harmless duplicate write
        # of the same content-addressed artifact.
        sites = (
            FaultSite("spool.heartbeat_stall", times=1),
            FaultSite("worker.slow_factor", times=1, param=4.0),
        )
    elif name == "lease-race":
        sites = (FaultSite("spool.lease_race", times=2),)
    elif name == "serve-flaky":
        # The serve front-end drops fresh connections (workers and
        # clients alike must reconnect on their retry schedule) and one
        # RemoteStore round-trip times out mid-read; the drill gates on
        # served predictions staying bit-identical to serial.
        sites = (
            FaultSite("serve.accept_drop", times=2),
            FaultSite("remote_store.read_timeout", times=1),
        )
    else:
        raise FaultError(
            f"unknown fault plan {name!r}; choose from {sorted(NAMED_PLANS)}"
        )
    return FaultPlan(name=name, sites=sites, seed=seed)
