"""Re-synthesis substrate: constant propagation, cleanup, design features."""

from repro.opt.constprop import propagate_constants
from repro.opt.features import FEATURE_NAMES, design_features
from repro.opt.simplify import cleanup, collapse_buffers, remove_dead_logic

__all__ = [
    "propagate_constants",
    "remove_dead_logic",
    "collapse_buffers",
    "cleanup",
    "FEATURE_NAMES",
    "design_features",
]
