"""Trainer engine tests: determinism, checkpoint/resume equivalence, early
stopping, and the shared evaluation/scoring batch iterator."""

import numpy as np
import pytest

from repro.gnn import BatchAssembler, GraphExample
from repro.linkpred import Trainer, TrainConfig
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


def _index_coded(example):
    """*example* with its one-hot rows stored as column indices."""
    cols = np.argmax(example.features, axis=1).astype(np.uint8)[:, None]
    return GraphExample(
        example.n_nodes, example.edges, cols, example.label,
        feature_width=example.features.shape[1],
    )


@pytest.mark.parametrize("coded", [False, True], ids=["dense", "index-coded"])
def test_evaluate_assembled_matches_built(coded):
    """Validation batches stitched by an assembler score exactly like
    :func:`build_batch` ones: an eval-mode forward ignores the stitched
    batches' one-hot columns and runs the same GEMM."""
    dataset = toy_dataset()
    model, _ = Trainer(dataset, CFG).fit()
    validation = [
        _index_coded(e) if coded else e for e in dataset.validation
    ]
    assembler = BatchAssembler(validation)
    stitched = _evaluate(
        model, validation, CFG.batch_size, assembler=assembler
    )
    built = _evaluate(model, validation, CFG.batch_size)
    assert stitched == built
    assert stitched == _evaluate(model, dataset.validation, CFG.batch_size)


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
# checkpoint compatibility (checkpoint format v3)
# ---------------------------------------------------------------------------
def test_kfac_era_checkpoint_resumes_under_adam(tmp_path):
    """A v3 checkpoint written by a K-FAC run of older code carries
    ``optimizer_name`` and ``preconditioner_state``; both are ignored and
    the run resumes as plain Adam."""
    from repro.store import codec

    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=3)
    t.save_checkpoint(path)

    payload = codec.load(path, kind="trainer-checkpoint")
    assert payload["version"] == 3
    payload["optimizer_name"] = "kfac"
    payload["preconditioner_state"] = {
        "t": 9,
        "n_updates": [9, 9],
        "dirty": False,
        "blocks": [
            {"A": np.eye(2), "G": np.eye(3), "A_inv": None, "G_inv": None}
        ],
    }
    kfac_era = str(tmp_path / "kfac.npz")
    codec.dump(payload, kfac_era, kind="trainer-checkpoint")

    resumed = Trainer(toy_dataset(), CFG)
    resumed.load_checkpoint(kfac_era)
    assert resumed.epoch == 3
    _, history = resumed.fit()
    assert history.epochs_run == CFG.epochs


def test_legacy_v2_checkpoint_still_loads(tmp_path):
    """A version-2 payload (no val_auc) loads: the AUC history backfills
    empty."""
    from repro.store import codec

    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=2)
    t.save_checkpoint(path)

    payload = codec.load(path, kind="trainer-checkpoint")
    payload["version"] = 2
    payload.pop("optimizer_name", None)
    payload.pop("preconditioner_state", None)
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


def _drop(name):
    def corrupt(payload):
        del payload[name]
        return payload

    return corrupt


def _unknown_history_field(payload):
    payload["history"]["grad_norm"] = [1.0]
    return payload


def _foreign_rng_state(payload):
    payload["dropout_rng_state"]["bit_generator"] = "MT19937"
    return payload


def _other_learning_rate(payload):
    payload["lr"] = 10 * CFG.learning_rate
    return payload


def _strings_in(*path):
    """Replace the last array of the state list at *path* with strings."""

    def corrupt(payload):
        state = payload
        for name in path:
            state = state[name]
        state[-1] = ["a", "b"]
        return payload

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop("config"),
        _drop("epoch"),
        _unknown_history_field,
        _foreign_rng_state,
        _other_learning_rate,
        lambda payload: [1, 2, 3],
        _strings_in("model_state"),
        _strings_in("best_state"),
        _strings_in("optimizer_state", "m"),
    ],
    ids=["no-config", "no-epoch", "unknown-history-field", "foreign-rng-state",
         "other-learning-rate", "list-payload", "string-model-state",
         "string-best-state", "string-adam-m"],
)
def test_malformed_checkpoint_raises_training_error_before_mutation(
    tmp_path, corrupt
):
    """A readable container with a bad payload fails as TrainingError,
    and leaves weights, Adam moments and RNG streams untouched."""
    from repro.errors import TrainingError
    from repro.store import codec

    path = str(tmp_path / "ck.npz")
    t = Trainer(toy_dataset(), CFG)
    t.fit(until_epoch=2)
    t.save_checkpoint(path)
    broken = str(tmp_path / "broken.npz")
    codec.dump(
        corrupt(codec.load(path, kind="trainer-checkpoint")), broken,
        kind="trainer-checkpoint",
    )

    fresh = Trainer(toy_dataset(), CFG)
    weights = fresh.model.state_dict()
    moments = fresh.optimizer.state_dict()
    rng_states = (
        fresh.rng.bit_generator.state,
        fresh.model.dropout.rng.bit_generator.state,
    )
    with pytest.raises(TrainingError, match="checkpoint"):
        fresh.load_checkpoint(broken)
    assert fresh.epoch == 0 and fresh.history.epochs_run == 0
    for a, b in zip(fresh.model.state_dict(), weights):
        np.testing.assert_array_equal(a, b)
    for name in ("m", "v"):
        for a, b in zip(fresh.optimizer.state_dict()[name], moments[name]):
            np.testing.assert_array_equal(a, b)
    assert fresh.optimizer.t == 0
    assert (
        fresh.rng.bit_generator.state,
        fresh.model.dropout.rng.bit_generator.state,
    ) == rng_states
