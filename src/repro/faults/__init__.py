"""Deterministic fault injection + unified retry policy.

Import order matters in this package: the serving layer
(:mod:`repro.serve`, :mod:`repro.wire`) and :mod:`repro.store` import
:mod:`repro.faults` (for :func:`fire` and
:class:`~repro.faults.retry.RetryPolicy`), so nothing here may import
them back at module level.  The drill orchestration —
:mod:`repro.faults.chaos` — *does* drive the serving layer and the
experiment grids, which is why it is loaded lazily by the CLI and never
re-exported from this ``__init__``.
"""

from repro.faults.plan import (
    FAULT_PLAN_ENV,
    FAULT_SITES,
    NAMED_PLANS,
    FaultError,
    FaultPlan,
    FaultSite,
    activate,
    deactivate,
    fire,
    fired_counts,
    named_fault_plan,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "NAMED_PLANS",
    "FaultError",
    "FaultPlan",
    "FaultSite",
    "RetryPolicy",
    "activate",
    "deactivate",
    "fire",
    "fired_counts",
    "named_fault_plan",
]
