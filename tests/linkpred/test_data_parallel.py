"""Data-parallel training tests: sharded trajectories are a function of
the shard count alone, and one shard is exactly the serial trainer."""

import numpy as np
import pytest

from repro.linkpred import TrainConfig, Trainer, make_trainer
from repro.linkpred.parallel import DataParallelTrainer, shard_dropout_rng
from repro.linkpred.trainer import Trainer as SerialTrainer

from tests.linkpred.test_trainer import toy_dataset


def cfg(**overrides):
    base = dict(epochs=3, learning_rate=3e-3, batch_size=10, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


def assert_same_run(a, b):
    model_a, hist_a = a
    model_b, hist_b = b
    assert hist_a.train_loss == hist_b.train_loss
    assert hist_a.val_loss == hist_b.val_loss
    assert hist_a.val_auc == hist_b.val_auc
    for x, y in zip(model_a.state_dict(), model_b.state_dict()):
        np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------
def test_make_trainer_routes_on_grad_shards():
    dataset = toy_dataset()
    assert type(make_trainer(dataset, cfg())) is SerialTrainer
    assert isinstance(
        make_trainer(dataset, cfg(grad_shards=2)), DataParallelTrainer
    )


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(grad_shards=0)
    with pytest.raises(ValueError):
        cfg(optimizer="sgd")


# ---------------------------------------------------------------------------
# shard RNG
# ---------------------------------------------------------------------------
def test_shard_dropout_rng_is_deterministic_and_distinct():
    streams = {
        (e, s, h): shard_dropout_rng(3, e, s, h).random(4).tolist()
        for e in range(2)
        for s in range(2)
        for h in range(2)
    }
    again = shard_dropout_rng(3, 1, 1, 1).random(4).tolist()
    assert streams[(1, 1, 1)] == again
    assert len({tuple(v) for v in streams.values()}) == len(streams)


# ---------------------------------------------------------------------------
# sharded trajectories
# ---------------------------------------------------------------------------
def test_single_shard_matches_serial_trainer_exactly():
    """grad_shards=1 through the factory IS the serial engine: identical
    object type and identical trajectory to a plain Trainer."""
    serial = Trainer(toy_dataset(), cfg()).fit()
    routed = make_trainer(toy_dataset(), cfg()).fit()
    assert_same_run(serial, routed)


def test_more_shards_than_examples_in_a_batch():
    """Trailing batches smaller than the shard count drop empty shards
    deterministically (no NaNs, no division by zero)."""
    # 36 train examples, batch 10 -> final batch of 6 with 8 shards.
    _, history = make_trainer(
        toy_dataset(), cfg(grad_shards=8)
    ).fit()
    assert np.isfinite(history.train_loss).all()


# ---------------------------------------------------------------------------
# checkpoint interop
# ---------------------------------------------------------------------------
def test_sharded_checkpoint_resume_is_bit_identical(tmp_path):
    """Shard dropout streams are re-derived, never persisted, so a resumed
    sharded run (Adam or K-FAC) matches the uninterrupted one bit for bit."""
    for optimizer in ("adam", "kfac"):
        path = str(tmp_path / f"ck-{optimizer}.npz")
        config = cfg(grad_shards=2, epochs=4, optimizer=optimizer)
        full = make_trainer(toy_dataset(), config).fit()

        partial = make_trainer(toy_dataset(), config)
        partial.fit(until_epoch=2)
        partial.save_checkpoint(path)

        resumed = make_trainer(toy_dataset(), config)
        resumed.load_checkpoint(path)
        assert_same_run(full, resumed.fit())
