"""In-process / process-pool bus — the behavior-preserving default.

Exactly the execution policy :class:`~repro.experiments.runner`
shipped before the bus seam existed: ``jobs <= 1`` runs serially in the
coordinator process (the reproducible single-core default, zero pool
overhead), ``jobs > 1`` fans unique jobs over one shared
``ProcessPoolExecutor``.  Results are yielded as they complete so the
runner can persist each artifact before the next lands — a crash late in
a grid never discards finished training — and the first worker failure
is re-raised only after the surviving results have been drained.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import TYPE_CHECKING, Iterator

from repro.blas import limit_blas_threads
from repro.bus.protocol import DEFAULT_WORKER_BLAS_THREADS, JobBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import AttackJob

__all__ = ["LocalBus"]


class LocalBus(JobBus):
    """Serial or pooled execution on this host."""

    name = "local"

    def __init__(self, jobs: int = 0) -> None:
        super().__init__()
        self.jobs = int(jobs)
        self._pool: ProcessPoolExecutor | None = None

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Pool children get the same BLAS cap as bus workers: the
            # jobs are single-core, and N children each waking a
            # cores-wide OpenBLAS spin pool slow one another down.
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=limit_blas_threads,
                initargs=(DEFAULT_WORKER_BLAS_THREADS,),
            )
        return self._pool

    def run(
        self, jobs: "list[AttackJob]"
    ) -> "Iterator[tuple[AttackJob, dict]]":
        from repro.experiments.runner import execute_job

        self.stats.submitted += len(jobs)
        if self.jobs > 1 and len(jobs) > 1:
            futures = {
                self._executor().submit(execute_job, job): job
                for job in jobs
            }
            failure: BaseException | None = None
            for future in as_completed(futures):
                try:
                    payload = future.result()
                except BaseException as exc:
                    if failure is None:
                        failure = exc
                    continue
                self.stats.completed += 1
                yield futures[future], payload
            if failure is not None:
                raise failure
        else:
            for job in jobs:
                payload = execute_job(job)
                self.stats.completed += 1
                yield job, payload

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
