"""Trainer engine tests: determinism, checkpoint/resume equivalence, early
stopping, LR scheduling, and the shared evaluation/scoring batch iterator."""

import numpy as np
import pytest

from repro.gnn import BatchCache, GraphExample
from repro.linkpred import Trainer, TrainConfig, train_link_predictor
from repro.linkpred.dataset import LinkDataset
from repro.linkpred.trainer import _evaluate, score_examples, score_stream


def make_example(rng, kind, width=4, n=12, label=None):
    """Dense graphs (label 1) vs sparse rings (label 0) with degree one-hots."""
    if kind == 1:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.6
        edges = np.array([p for p, k in zip(pairs, keep) if k] or [(0, 1)])
    else:
        edges = np.array([(i, (i + 1) % n) for i in range(n)])
    degree = np.zeros(n, dtype=int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    features = np.zeros((n, width))
    features[np.arange(n), np.minimum(degree // 2, width - 1)] = 1.0
    return GraphExample(n, edges, features, label=kind if label is None else label)


def toy_dataset(n_train=36, n_val=12, seed=0, flip_val_labels=False):
    rng = np.random.default_rng(seed)
    train = [make_example(rng, i % 2) for i in range(n_train)]
    validation = [
        make_example(rng, i % 2, label=(1 - i % 2) if flip_val_labels else None)
        for i in range(n_val)
    ]
    return LinkDataset(
        train=train,
        validation=validation,
        max_label=1,
        feature_width=4,
        h=1,
        subgraph_sizes=[e.n_nodes for e in train],
    )


CFG = TrainConfig(epochs=6, learning_rate=3e-3, batch_size=10, seed=3)


def test_trainer_rejects_empty_split():
    from repro.errors import TrainingError

    with pytest.raises(TrainingError):
        Trainer(toy_dataset(n_train=0, n_val=4), CFG)


def test_trainer_is_deterministic():
    """Same seed => bit-identical history and weights."""
    m1, h1 = Trainer(toy_dataset(), CFG).fit()
    m2, h2 = Trainer(toy_dataset(), CFG).fit()
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss
    assert h1.val_accuracy == h2.val_accuracy
    assert h1.learning_rates == h2.learning_rates
    assert h1.best_epoch == h2.best_epoch
    for a, b in zip(m1.state_dict(), m2.state_dict()):
        np.testing.assert_array_equal(a, b)


def test_wrapper_matches_trainer():
    m1, h1 = train_link_predictor(toy_dataset(), CFG)
    m2, h2 = Trainer(toy_dataset(), CFG).fit()
    assert h1.train_loss == h2.train_loss
    for a, b in zip(m1.state_dict(), m2.state_dict()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_resume_is_bit_identical(tmp_path):
    """Straight run == run 3 epochs, checkpoint, reload, run the rest."""
    path = str(tmp_path / "ck.pkl")
    m_full, h_full = Trainer(toy_dataset(), CFG).fit()

    partial = Trainer(toy_dataset(), CFG)
    partial.fit(until_epoch=3)
    assert partial.epoch == 3
    partial.save_checkpoint(path)

    resumed = Trainer(toy_dataset(), CFG)
    resumed.load_checkpoint(path)
    assert resumed.epoch == 3
    m_res, h_res = resumed.fit()

    assert h_res.train_loss == h_full.train_loss
    assert h_res.val_loss == h_full.val_loss
    assert h_res.best_epoch == h_full.best_epoch
    for a, b in zip(m_res.state_dict(), m_full.state_dict()):
        np.testing.assert_array_equal(a, b)


def test_config_resume_flag(tmp_path):
    path = str(tmp_path / "auto.pkl")
    cfg = TrainConfig(
        epochs=6, learning_rate=3e-3, batch_size=10, seed=3,
        checkpoint_path=path, resume=True,
    )
    m_full, h_full = Trainer(toy_dataset(), CFG).fit()
    t = Trainer(toy_dataset(), cfg)
    t.fit(until_epoch=2)
    t.save_checkpoint(path)
    m_res, h_res = Trainer(toy_dataset(), cfg).fit()  # auto-resumes
    assert h_res.train_loss == h_full.train_loss
    for a, b in zip(m_res.state_dict(), m_full.state_dict()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_rejects_mismatched_config(tmp_path):
    from repro.errors import TrainingError

    path = str(tmp_path / "ck.pkl")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=1)
    t.save_checkpoint(path)
    other = Trainer(
        toy_dataset(),
        TrainConfig(epochs=6, batch_size=10, seed=99),
    )
    with pytest.raises(TrainingError):
        other.load_checkpoint(path)


def test_checkpoint_rejects_different_dataset(tmp_path):
    from repro.errors import TrainingError

    path = str(tmp_path / "ck.pkl")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=1)
    t.save_checkpoint(path)
    # Same feature width and k, different split sizes: shapes would line
    # up, but the identity check must still refuse.
    other = Trainer(toy_dataset(n_train=30, n_val=6), CFG)
    with pytest.raises(TrainingError, match="different dataset"):
        other.load_checkpoint(path)


def test_checkpoint_rejects_mismatched_dtype(tmp_path):
    from repro.errors import TrainingError
    from repro.nn import default_dtype, dtype_scope

    path = str(tmp_path / "ck.pkl")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=1)
    t.save_checkpoint(path)
    flipped = np.float64 if default_dtype() == np.float32 else np.float32
    with dtype_scope(flipped):
        other = Trainer(toy_dataset(), CFG)
        with pytest.raises(TrainingError, match="runtime"):
            other.load_checkpoint(path)


def test_score_examples_rejects_nonpositive_batch_size():
    dataset = toy_dataset()
    model, _ = Trainer(dataset, CFG).fit()
    with pytest.raises(ValueError):
        score_examples(model, dataset.validation, batch_size=0)


def test_early_stopping_triggers_on_worsening_validation():
    """Flipped validation labels: val loss rises as training improves."""
    cfg = TrainConfig(
        epochs=40, learning_rate=3e-3, batch_size=10, seed=3, patience=3
    )
    _, history = Trainer(toy_dataset(flip_val_labels=True), cfg).fit()
    assert history.stopped_early
    assert history.epochs_run < cfg.epochs
    assert history.epochs_run - 1 - history.best_epoch >= cfg.patience


def test_resume_past_early_stop_with_patience_disabled(tmp_path):
    """An early-stopped checkpoint resumes when patience is raised/disabled."""
    path = str(tmp_path / "ck.pkl")
    stopper_cfg = TrainConfig(
        epochs=40, learning_rate=3e-3, batch_size=10, seed=3, patience=3
    )
    t = Trainer(toy_dataset(flip_val_labels=True), stopper_cfg)
    _, stopped = t.fit()
    assert stopped.stopped_early
    t.save_checkpoint(path)

    relaxed_cfg = TrainConfig(
        epochs=stopped.epochs_run + 2, learning_rate=3e-3, batch_size=10,
        seed=3, patience=None,
    )
    resumed = Trainer(toy_dataset(flip_val_labels=True), relaxed_cfg)
    resumed.load_checkpoint(path)
    _, history = resumed.fit()
    assert not history.stopped_early
    assert history.epochs_run == stopped.epochs_run + 2


def test_no_early_stopping_without_validation():
    cfg = TrainConfig(epochs=4, batch_size=10, seed=3, patience=1)
    _, history = Trainer(toy_dataset(n_val=0), cfg).fit()
    assert not history.stopped_early
    assert history.epochs_run == 4


def test_lr_schedule_is_applied_and_recorded():
    cfg = TrainConfig(
        epochs=6, learning_rate=1e-2, batch_size=10, seed=3,
        lr_decay=0.5, lr_decay_every=2,
    )
    _, history = Trainer(toy_dataset(), cfg).fit()
    np.testing.assert_allclose(
        history.learning_rates,
        [1e-2, 1e-2, 5e-3, 5e-3, 2.5e-3, 2.5e-3],
    )


def test_evaluate_cache_matches_uncached():
    dataset = toy_dataset()
    model, _ = Trainer(dataset, CFG).fit()
    cache = BatchCache(dataset.validation, CFG.batch_size)
    cached = _evaluate(model, dataset.validation, CFG.batch_size, cache=cache)
    uncached = _evaluate(model, dataset.validation, CFG.batch_size)
    assert cached == uncached


def test_score_examples_batch_size_invariant():
    """Per-graph scores are independent of batch chunking.

    Mathematically exact; numerically BLAS picks different GEMM blockings
    for different batch shapes, so allow ulp-level slack.
    """
    dataset = toy_dataset()
    model, _ = Trainer(dataset, CFG).fit()
    a = score_examples(model, dataset.validation, batch_size=3)
    b = score_examples(model, dataset.validation, batch_size=50)
    default = score_examples(model, dataset.validation)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(b, default)
    assert score_examples(model, []).size == 0


def test_score_examples_accepts_prebuilt_cache():
    """A BatchCache skips batch construction; scores are bit-identical."""
    dataset = toy_dataset()
    model, _ = Trainer(dataset, CFG).fit()
    cache = BatchCache(dataset.validation, CFG.batch_size)
    uncached = score_examples(model, dataset.validation, CFG.batch_size)
    cached = score_examples(model, dataset.validation, CFG.batch_size, cache=cache)
    np.testing.assert_array_equal(cached, uncached)
    # batch_size may be inferred from the cache
    np.testing.assert_array_equal(
        score_examples(model, dataset.validation, cache=cache), uncached
    )


def test_score_stream_matches_serial_scoring():
    """Streamed scoring partitions batches exactly like score_examples."""
    dataset = toy_dataset(n_train=30, n_val=23)
    model, _ = Trainer(dataset, CFG).fit()
    serial = score_examples(model, dataset.validation, batch_size=5)

    produced = []

    def chunks():
        # uneven chunk sizes cross batch boundaries on purpose
        examples = list(dataset.validation)
        for size in (3, 7, 1, 8, 4):
            chunk, examples = examples[:size], examples[size:]
            produced.append(len(chunk))
            yield chunk
        assert not examples

    streamed = score_stream(model, chunks(), batch_size=5, prefetch=2)
    np.testing.assert_array_equal(streamed, serial)
    assert sum(produced) == len(dataset.validation)
    # prefetch<=0 degrades to the serial call
    degraded = score_stream(
        model, [list(dataset.validation)], batch_size=5, prefetch=0
    )
    np.testing.assert_array_equal(degraded, serial)
    assert score_stream(model, [], batch_size=5).size == 0


def test_score_stream_propagates_producer_errors():
    dataset = toy_dataset()
    model, _ = Trainer(dataset, CFG).fit()

    def chunks():
        yield dataset.validation[:4]
        raise RuntimeError("extraction exploded")

    with pytest.raises(RuntimeError, match="extraction exploded"):
        score_stream(model, chunks(), batch_size=2, prefetch=1)


def test_checkpoint_is_a_codec_artifact_not_pickle(tmp_path):
    """Checkpoints ride the shared repro.store codec: raw numpy arrays,
    never unpickled, and legacy pickle files are rejected cleanly."""
    import pickle

    import numpy as np

    from repro.errors import TrainingError
    from repro.store import codec

    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=1)
    t.save_checkpoint(path)
    # The file is a codec artifact (no pickled objects inside) ...
    payload = codec.load(path, kind="trainer-checkpoint")
    assert payload["epoch"] == 1
    assert isinstance(payload["model_state"][0], np.ndarray)
    assert payload["shuffle_rng_state"]["bit_generator"] == "PCG64"

    # ... and a pickle-era checkpoint fails with a clear TrainingError.
    legacy = str(tmp_path / "legacy.pkl")
    with open(legacy, "wb") as handle:
        pickle.dump({"version": 1}, handle)
    fresh = Trainer(toy_dataset(), CFG)
    with pytest.raises(TrainingError, match="unreadable checkpoint"):
        fresh.load_checkpoint(legacy)


# ---------------------------------------------------------------------------
# optimizer swap / K-FAC checkpointing (checkpoint format v3)
# ---------------------------------------------------------------------------
KFAC_CFG = TrainConfig(
    epochs=6, learning_rate=3e-3, batch_size=10, seed=3,
    optimizer="kfac", kfac_inv_every=2,
)


def test_kfac_trainer_is_deterministic_and_diverges_from_adam():
    m1, h1 = Trainer(toy_dataset(), KFAC_CFG).fit()
    m2, h2 = Trainer(toy_dataset(), KFAC_CFG).fit()
    assert h1.train_loss == h2.train_loss
    for a, b in zip(m1.state_dict(), m2.state_dict()):
        np.testing.assert_array_equal(a, b)
    # The preconditioner changes the trajectory: it is a semantic knob.
    _, h_adam = Trainer(toy_dataset(), CFG).fit()
    assert h1.train_loss != h_adam.train_loss


def test_kfac_checkpoint_resume_is_bit_identical(tmp_path):
    """v3 checkpoints carry the preconditioner state: straight run ==
    run 3 epochs, checkpoint, reload, run the rest — under K-FAC."""
    path = str(tmp_path / "ck.npz")
    m_full, h_full = Trainer(toy_dataset(), KFAC_CFG).fit()

    partial = Trainer(toy_dataset(), KFAC_CFG)
    partial.fit(until_epoch=3)
    partial.save_checkpoint(path)

    resumed = Trainer(toy_dataset(), KFAC_CFG)
    resumed.load_checkpoint(path)
    assert resumed.preconditioner.t == partial.preconditioner.t
    m_res, h_res = resumed.fit()
    assert h_res.train_loss == h_full.train_loss
    assert h_res.val_auc == h_full.val_auc
    for a, b in zip(m_res.state_dict(), m_full.state_dict()):
        np.testing.assert_array_equal(a, b)


def test_adam_checkpoint_resumes_with_kfac_enabled(tmp_path):
    """Optimizer swap across the checkpoint boundary: an Adam checkpoint
    resumes under K-FAC (moments transfer, preconditioner cold-starts)."""
    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=3)
    t.save_checkpoint(path)

    resumed = Trainer(toy_dataset(), KFAC_CFG)
    resumed.load_checkpoint(path)
    assert resumed.epoch == 3
    assert resumed.preconditioner.t == 0  # cold start
    _, history = resumed.fit()
    assert history.epochs_run == KFAC_CFG.epochs


def test_kfac_checkpoint_resumes_under_adam(tmp_path):
    """The reverse swap: preconditioner state in the checkpoint is
    ignored by an Adam resume instead of raising."""
    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), KFAC_CFG)
    t.fit(until_epoch=3)
    t.save_checkpoint(path)

    resumed = Trainer(toy_dataset(), CFG)
    resumed.load_checkpoint(path)
    assert resumed.preconditioner is None
    _, history = resumed.fit()
    assert history.epochs_run == CFG.epochs


def test_legacy_v2_checkpoint_still_loads(tmp_path):
    """A version-2 payload (no optimizer name, no preconditioner state,
    no val_auc) loads: the AUC history backfills empty."""
    from repro.store import codec

    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=2)
    t.save_checkpoint(path)

    payload = codec.load(path, kind="trainer-checkpoint")
    payload["version"] = 2
    del payload["optimizer_name"]
    del payload["preconditioner_state"]
    del payload["history"]["val_auc"]
    legacy = str(tmp_path / "legacy.npz")
    codec.dump(payload, legacy, kind="trainer-checkpoint")

    resumed = Trainer(toy_dataset(), CFG)
    resumed.load_checkpoint(legacy)
    assert resumed.epoch == 2
    assert resumed.history.val_auc == []
    _, history = resumed.fit()
    assert history.epochs_run == CFG.epochs


def test_checkpoint_with_mismatched_shapes_raises_cleanly(tmp_path):
    """Architecture drift fails as TrainingError before any state is
    assigned — not as a broadcast error half-way through."""
    from repro.errors import TrainingError
    from repro.store import codec

    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=1)
    t.save_checkpoint(path)

    payload = codec.load(path, kind="trainer-checkpoint")
    payload["optimizer_state"]["m"][0] = np.zeros((2, 2))
    broken = str(tmp_path / "broken.npz")
    codec.dump(payload, broken, kind="trainer-checkpoint")

    fresh = Trainer(toy_dataset(), CFG)
    untouched = [a.copy() for a in fresh.model.state_dict()]
    with pytest.raises(TrainingError, match="does not fit this model"):
        fresh.load_checkpoint(broken)
    assert fresh.epoch == 0
    for a, b in zip(fresh.model.state_dict(), untouched):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_with_mismatched_kfac_state_raises_cleanly(tmp_path):
    from repro.errors import TrainingError
    from repro.store import codec

    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), KFAC_CFG)
    t.fit(until_epoch=1)
    t.save_checkpoint(path)

    payload = codec.load(path, kind="trainer-checkpoint")
    payload["preconditioner_state"]["blocks"][0]["A"] = np.eye(2)
    broken = str(tmp_path / "broken.npz")
    codec.dump(payload, broken, kind="trainer-checkpoint")

    fresh = Trainer(toy_dataset(), KFAC_CFG)
    with pytest.raises(TrainingError, match="does not fit this model"):
        fresh.load_checkpoint(broken)
    assert fresh.epoch == 0
