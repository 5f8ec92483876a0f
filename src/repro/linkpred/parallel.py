"""Gradient-sharded training epochs.

A :class:`DataParallelTrainer` splits every optimizer step's shuffled
batch into ``config.grad_shards`` fixed contiguous shards, runs
forward/backward per shard in-process, and combines the per-shard
mean-loss gradients as ``g = Σ_s (n_s / n) g_s`` in ascending shard
order.  That reduction — and the per-``(epoch, step, shard)`` dropout
streams spawned from the trainer seed's
:class:`~numpy.random.SeedSequence` — fixes every bit of the trajectory
as a function of the *configuration*; the artifact store folds
``grad_shards`` into the config token.

Checkpoints need nothing beyond the serial trainer's payload: the
trainer's own dropout stream is never consumed (shard streams are
re-derived from ``(seed, epoch, step, shard)``), so resume is
bit-identical through the ordinary :class:`~repro.linkpred.trainer.Trainer`
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn import BatchAssembler, DGCNN
from repro.linkpred.trainer import Trainer
from repro.nn import CurvatureCollector, collecting

__all__ = ["DataParallelTrainer", "shard_dropout_rng"]


def shard_dropout_rng(
    seed: int, epoch: int, step: int, shard: int
) -> np.random.Generator:
    """The dropout stream of one ``(epoch, step, shard)`` cell.

    Spawned from the trainer seed's :class:`~numpy.random.SeedSequence`
    (itself derived from the experiment cell's spawned sequence), so the
    stream depends only on the cell, never on what ran before it.
    ``seed + 1`` keeps the entropy root distinct from the shuffle stream's
    ``default_rng(seed)``.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed + 1, spawn_key=(epoch, step, shard))
    )


@dataclass
class _ShardResult:
    """One shard's contribution to a step."""

    n: int
    loss: float
    grads: list[np.ndarray]
    curvature: list[tuple[np.ndarray, np.ndarray, int] | None] | None


def _run_shard(
    model: DGCNN,
    assembler: BatchAssembler,
    collector: CurvatureCollector | None,
    seed: int,
    epoch: int,
    step: int,
    shard: int,
    indices: np.ndarray,
) -> _ShardResult:
    """Forward/backward one shard on *model*; harvest grads (+curvature)."""
    model.dropout.rng = shard_dropout_rng(seed, epoch, step, shard)
    model.zero_grad()
    batch = assembler.assemble(indices, reuse_buffers=True)
    loss = model.loss(batch)
    if collector is not None:
        with collecting(collector):
            loss.backward()
        curvature = collector.harvest()
    else:
        loss.backward()
        curvature = None
    # backward() leaves freshly-owned gradient arrays on the parameters;
    # taking the references (instead of copies) is safe because the next
    # shard starts with zero_grad().
    grads = [p.grad for p in model.parameters()]
    return _ShardResult(
        n=int(len(indices)), loss=loss.item(), grads=grads, curvature=curvature
    )


class DataParallelTrainer(Trainer):
    """Gradient-sharded :class:`~repro.linkpred.trainer.Trainer`.

    Everything except the per-step kernel — shuffling, evaluation, early
    stopping, LR scheduling, checkpoint/resume — is inherited; only
    :meth:`_train_step` is replaced by the shard/combine formulation
    described in the module docstring.  Build through
    :func:`~repro.linkpred.trainer.make_trainer`, which routes
    ``grad_shards == 1`` configs to the serial engine.
    """

    # ---------------------------------------------------------------- kernel
    def _train_step(self, indices: np.ndarray, step_index: int) -> float:
        shards = [
            part
            for part in np.array_split(indices, self.config.grad_shards)
            if part.size  # a batch smaller than the shard count
        ]
        collect = (
            self.preconditioner is not None
            and self.preconditioner.wants_statistics()
        )
        results = self._run_shards_local(self.epoch, step_index, shards, collect)

        n_total = int(sum(result.n for result in results))
        combined: list[np.ndarray] | None = None
        total_loss = 0.0
        for result in results:  # ascending shard order — part of the contract
            weight = result.n / n_total
            total_loss += weight * result.loss
            if combined is None:
                combined = [weight * g for g in result.grads]
            else:
                for acc, g in zip(combined, result.grads):
                    acc += weight * g
        self.optimizer.zero_grad()
        for param, grad in zip(self.model.parameters(), combined):
            param.grad = grad
        if self.preconditioner is not None:
            for result in results:
                if result.curvature is not None:
                    self.preconditioner.absorb(result.curvature)
            self.preconditioner.step()
        self.optimizer.step()
        return total_loss

    # ------------------------------------------------------------- execution
    def _run_shards_local(
        self, epoch: int, step: int, shards: list[np.ndarray], collect: bool
    ) -> list[_ShardResult]:
        collector = self.preconditioner.collector if collect else None
        saved_rng = self.model.dropout.rng
        try:
            return [
                _run_shard(
                    self.model, self.train_assembler, collector,
                    self.config.seed, epoch, step, shard, indices,
                )
                for shard, indices in enumerate(shards)
            ]
        finally:
            # The trainer's own dropout stream stays unconsumed, so
            # checkpoints carry only the serial trainer's state.
            self.model.dropout.rng = saved_rng
