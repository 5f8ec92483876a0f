"""Bit-parallel logic simulation and Hamming-distance evaluation."""

from repro.sim.hamming import hamming_distance
from repro.sim.simulator import random_patterns, simulate, simulate_outputs

__all__ = [
    "random_patterns",
    "simulate",
    "simulate_outputs",
    "hamming_distance",
]
