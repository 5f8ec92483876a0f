"""Compatibility alias: the BLAS pin lives in :mod:`repro.blas`."""

from repro.blas import _candidate_libraries, limit_blas_threads

__all__ = ["limit_blas_threads"]
