"""DGCNN training engine for link prediction (paper Sec. III-D / IV).

Follows the paper's recipe: Adam, 100 epochs, initial learning rate 1e-4,
keep the parameters that perform best on the 10 % validation split.
CI-scale experiments pass smaller epoch counts through the same interface.

The engine is built for throughput:

* **Cached batch components** — every example's normalized operator and
  feature block is built exactly once per split
  (:class:`~repro.gnn.BatchAssembler`); the per-epoch shuffle then
  assembles batches by pure array stitching, so epochs 2..N run none of
  the dedup/degree operator work.  The trajectory is bit-identical to
  the seed per-epoch rebuild at equal dtype.  Validation and scoring
  iterate fixed prebuilt batches (:class:`~repro.gnn.BatchCache`).
* **float32 runtime** — see the dtype policy in :mod:`repro.nn`
  (``REPRO_DTYPE=float64`` restores the well-conditioned mode).
* **Resumable** — :class:`Trainer` checkpoints weights, optimizer moments
  and both RNG streams, so an interrupted run resumes bit-identically.

:func:`train_link_predictor` remains the thin compatibility wrapper over
:class:`Trainer` that every existing caller uses.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.gnn import (
    BatchAssembler,
    BatchCache,
    DGCNN,
    GraphBatch,
    GraphExample,
    build_batch,
    choose_sortpool_k,
)
from repro.knobs import EXEC, KEY, knob
from repro.linkpred.dataset import LinkDataset
from repro.nn import Adam, default_dtype

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "Trainer",
    "make_trainer",
    "train_link_predictor",
    "score_examples",
    "score_stream",
]

#: Paper batch size; also the fallback for :func:`score_examples` callers
#: that do not thread a :class:`TrainConfig` through.
DEFAULT_BATCH_SIZE = 50


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the link-prediction GNN.

    Defaults are the paper's settings; ``epochs`` is the main knob CI-scale
    runs turn down.  Each field declares its role (:mod:`repro.knobs`):
    ``key`` fields move the trained model and key the store; ``exec``
    fields (checkpoints, progress lines) only say how this host trains,
    never move a bit, and never leave the host.

    Attributes:
        epochs: maximum training epochs.
        learning_rate: initial Adam learning rate.
        batch_size: minibatch size (fixed cache partition).
        sortpool_percentile: SortPooling k percentile (paper: 0.6).
        seed: parameter / shuffle seed.
        patience: early stopping — abort when the validation loss has not
            improved for this many consecutive epochs (``None`` disables).
        lr_decay: multiplicative LR decay factor.
        lr_decay_every: apply ``lr_decay`` every this many epochs
            (``0`` disables scheduling).
        checkpoint_path: where :class:`Trainer` persists its state.
        checkpoint_every: save a checkpoint every N epochs (``0`` = only
            the final one; ignored without ``checkpoint_path``).
        resume: resume from ``checkpoint_path`` when the file exists.
        log_every: print a progress line every N epochs (``0`` = silent).
    """

    epochs: int = knob(KEY, 100)
    learning_rate: float = knob(KEY, 1e-4)
    batch_size: int = knob(KEY, DEFAULT_BATCH_SIZE)
    sortpool_percentile: float = knob(KEY, 0.6)
    seed: int = knob(KEY, 0)
    patience: int | None = knob(KEY, None)
    lr_decay: float = knob(KEY, 1.0)
    lr_decay_every: int = knob(KEY, 0)
    checkpoint_path: str | None = knob(EXEC, None)
    checkpoint_every: int = knob(EXEC, 0)
    resume: bool = knob(EXEC, False)
    log_every: int = knob(EXEC, 0)


@dataclass
class TrainHistory:
    """Per-epoch train loss, validation loss/accuracy/AUC and learning rate."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    val_auc: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = 0.0
    best_val_loss: float = float("inf")
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def _iter_batches(
    examples: Sequence[GraphExample],
    batch_size: int,
    cache: BatchCache | None = None,
) -> Iterator[GraphBatch]:
    """Yield evaluation batches — prebuilt from *cache* when available.

    This is the one chunked-batching loop shared by validation
    (:func:`_evaluate`) and scoring (:func:`score_examples`).
    """
    if cache is not None:
        yield from cache
    else:
        for start in range(0, len(examples), batch_size):
            yield build_batch(examples[start : start + batch_size])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of *values*, ties sharing their average rank.

    Equal to scipy's ``rankdata(values)`` bit for bit: every rank is
    the exact half-integer ``(start + end + 1) / 2`` of its tie group in
    the stable sort order.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # Compare neighbours rather than ``np.diff``: ``inf - inf`` is NaN.
    new_group = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC via the Mann-Whitney rank statistic (average-tie ranks).

    ``nan`` for single-class label sets — with tiny validation splits a
    class can be absent, and a fake 0.5 would poison best-epoch logic —
    and, like scipy's ``rankdata``, when any score is NaN.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0 or np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _evaluate(
    model: DGCNN,
    examples: Sequence[GraphExample],
    batch_size: int,
    cache: BatchCache | None = None,
) -> tuple[float, float, float]:
    """``(mean cross-entropy, accuracy, ROC AUC)`` over *examples* in
    eval mode."""
    n = cache.n_examples if cache is not None else len(examples)
    if n == 0:
        return float("nan"), float("nan"), float("nan")
    correct = 0
    loss_sum = 0.0
    all_probs: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    for batch in _iter_batches(examples, batch_size, cache):
        probs = model.predict_proba(batch)
        labels = batch.labels
        predicted = (probs > 0.5).astype(int)
        correct += int((predicted == labels).sum())
        clipped = np.clip(np.where(labels == 1, probs, 1 - probs), 1e-12, 1.0)
        loss_sum += float(-np.log(clipped).sum())
        all_probs.append(probs)
        all_labels.append(labels)
    auc = _roc_auc(np.concatenate(all_labels), np.concatenate(all_probs))
    return loss_sum / n, correct / n, auc


def score_examples(
    model: DGCNN,
    examples: Sequence[GraphExample],
    batch_size: int | None = None,
    cache: BatchCache | None = None,
) -> np.ndarray:
    """Likelihood of "link exists" for each example (paper step 5).

    ``batch_size`` defaults to :data:`DEFAULT_BATCH_SIZE`; callers with a
    :class:`TrainConfig` should pass ``config.batch_size`` so scoring
    chunks match the training configuration.

    Like :func:`_evaluate`, an optional prebuilt *cache* (a
    :class:`~repro.gnn.BatchCache` over the same examples) skips batch
    construction entirely — repeated scoring of a fixed split then pays
    the operator/stacking cost exactly once, at cache build.
    """
    n = cache.n_examples if cache is not None else len(examples)
    if n == 0:
        return np.empty(0)
    if batch_size is None:
        batch_size = cache.batch_size if cache is not None else DEFAULT_BATCH_SIZE
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return np.concatenate(
        [
            model.predict_proba(batch)
            for batch in _iter_batches(examples, batch_size, cache)
        ]
    )


def score_stream(
    model: DGCNN,
    example_chunks: Iterable[Sequence[GraphExample]],
    batch_size: int | None = None,
    prefetch: int = 2,
) -> np.ndarray:
    """Score a stream of example chunks, overlapping production with GNN
    forwards.

    A producer thread drains *example_chunks* — doing whatever lazy work
    the iterable encodes, typically target-subgraph extraction and
    featurization (:func:`repro.linkpred.dataset.iter_target_examples`) —
    regroups the examples into :data:`DEFAULT_BATCH_SIZE`-style batches
    and pushes prebuilt :class:`~repro.gnn.GraphBatch` es through a
    bounded queue while the caller's thread runs ``predict_proba``.  At
    most *prefetch* batches are in flight, bounding memory on large
    designs.  numpy/scipy release the GIL inside their kernels, so
    extraction genuinely overlaps scoring.

    Returns exactly what ``score_examples(model, concatenated_chunks,
    batch_size)`` returns — the batch partition is identical, so scores
    are too.  ``prefetch <= 0`` degrades to that serial call.
    """
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if prefetch <= 0:
        merged = [e for chunk in example_chunks for e in chunk]
        return score_examples(model, merged, batch_size)

    feed: queue.Queue = queue.Queue(maxsize=prefetch)
    done = object()
    failure: list[BaseException] = []
    abort = threading.Event()

    def produce() -> None:
        try:
            pending: list[GraphExample] = []
            for chunk in example_chunks:
                pending.extend(chunk)
                while len(pending) >= batch_size and not abort.is_set():
                    feed.put(build_batch(pending[:batch_size]))
                    del pending[:batch_size]
                if abort.is_set():
                    return
            if pending and not abort.is_set():
                feed.put(build_batch(pending))
        except BaseException as exc:  # surfaced on the consumer thread
            failure.append(exc)
        finally:
            feed.put(done)

    producer = threading.Thread(
        target=produce, name="score-stream-producer", daemon=True
    )
    producer.start()
    scores: list[np.ndarray] = []
    try:
        while True:
            item = feed.get()
            if item is done:
                break
            scores.append(model.predict_proba(item))
    finally:
        # On consumer failure, unblock a producer waiting on a full queue
        # so join() cannot deadlock.
        abort.set()
        while True:
            try:
                if feed.get_nowait() is done:
                    break
            except queue.Empty:
                if not producer.is_alive():
                    break
                time.sleep(0.005)
        producer.join()
    if failure:
        raise failure[0]
    return np.concatenate(scores) if scores else np.empty(0)


#: Version 2: the pickle container was replaced by the shared
#: ``repro.store.codec`` npz format (same logical payload — weights,
#: best-so-far weights, Adam moments, both RNG streams, history — with
#: the same bit-identical resume guarantee, minus pickle's
#: arbitrary-code-on-load hazard).  Version-1 pickle checkpoints are
#: reported as unreadable, not silently migrated.
#: Version 3 adds the per-epoch validation AUC; version-2 checkpoints
#: still load (``val_auc`` backfills empty).  Older version-3 files also
#: carry ``optimizer_name`` and ``preconditioner_state`` (from the removed
#: second-order optimizer); readers ignore both.  The
#: container moved from npz archives to the flat codec (codec 2) without
#: a version bump here: an npz-era checkpoint is reported as unreadable.
_CHECKPOINT_VERSION = 3
_LEGACY_CHECKPOINT_VERSIONS = frozenset({2})
_CHECKPOINT_KIND = "trainer-checkpoint"
#: Every payload key :meth:`Trainer.load_checkpoint` reads.
_CHECKPOINT_FIELDS = frozenset({
    "version", "epoch", "model_state", "best_state", "optimizer_state",
    "lr", "shuffle_rng_state", "dropout_rng_state", "history", "config",
})
#: The saved ``config`` keys it checks against the resuming trainer.
_CHECKPOINT_CONFIG_FIELDS = frozenset({
    "seed", "batch_size", "dtype", "feature_width", "k", "n_train",
    "n_validation",
})


class Trainer:
    """Stateful, resumable DGCNN training engine.

    Usage::

        trainer = Trainer(dataset, TrainConfig(epochs=100, patience=10))
        model, history = trainer.fit()

    ``fit`` may be called incrementally (``fit(until_epoch=…)``) and the
    full state — weights, best-so-far weights, Adam moments, shuffle and
    dropout RNG streams, history — round-trips through
    :meth:`save_checkpoint` / :meth:`load_checkpoint`, so::

        straight run  ==  run 5 epochs, checkpoint, reload, run the rest

    holds bit for bit.
    """

    def __init__(self, dataset: LinkDataset, config: TrainConfig = TrainConfig()):
        if not dataset.train:
            raise TrainingError("empty training split")
        self.dataset = dataset
        self.config = config
        k = choose_sortpool_k(
            dataset.subgraph_sizes or [e.n_nodes for e in dataset.train],
            percentile=config.sortpool_percentile,
        )
        self.model = DGCNN(
            in_features=dataset.feature_width, k=k, seed=config.seed
        )
        self.optimizer = Adam(self.model.parameters(), lr=config.learning_rate)
        self.rng = np.random.default_rng(config.seed)
        self.history = TrainHistory()
        self.epoch = 0
        self._best_state = self.model.state_dict()
        # The expensive part — built exactly once per split.
        self.train_assembler = BatchAssembler(dataset.train)
        self.val_cache = BatchCache(dataset.validation, config.batch_size)

    # ------------------------------------------------------------- training
    def fit(self, until_epoch: int | None = None) -> tuple[DGCNN, TrainHistory]:
        """Train to ``config.epochs`` (or ``until_epoch``, if smaller).

        On completion (epoch budget exhausted or early stopping) the
        best-validation weights are restored and the model switched to
        eval mode.  A partial ``fit`` leaves the live weights in place so
        training can continue.
        """
        config = self.config
        if (
            self.epoch == 0
            and config.resume
            and config.checkpoint_path
            and os.path.exists(config.checkpoint_path)
        ):
            self.load_checkpoint(config.checkpoint_path)
        target = config.epochs if until_epoch is None else min(until_epoch, config.epochs)

        while self.epoch < target and not self.history.stopped_early:
            self._run_epoch()
            if self._patience_exhausted():
                self.history.stopped_early = True
            if config.checkpoint_path and (
                (config.checkpoint_every
                 and self.epoch % config.checkpoint_every == 0)
                or self.epoch >= config.epochs
                or self.history.stopped_early
            ):
                self.save_checkpoint(config.checkpoint_path)

        if self.epoch >= self.config.epochs or self.history.stopped_early:
            self._finalize()
        return self.model, self.history

    def _run_epoch(self) -> None:
        config = self.config
        started = time.perf_counter()
        self.history.learning_rates.append(self.optimizer.lr)
        self.model.train()
        epoch_loss = 0.0
        n_batches = 0
        order = self.rng.permutation(len(self.train_assembler))
        for start in range(0, len(order), config.batch_size):
            epoch_loss += self._train_step(order[start : start + config.batch_size])
            n_batches += 1
        self.history.train_loss.append(epoch_loss / max(n_batches, 1))

        val_loss, val_acc, val_auc = _evaluate(
            self.model, self.dataset.validation, config.batch_size,
            cache=self.val_cache,
        )
        self.history.val_loss.append(val_loss)
        self.history.val_accuracy.append(val_acc)
        self.history.val_auc.append(val_auc)
        # Model selection on validation *loss*: with small validation sets
        # the quantized accuracy makes early flukes win; cross-entropy is a
        # smoother criterion.  With no validation split the final weights win.
        if self.dataset.validation and val_loss <= self.history.best_val_loss:
            self.history.best_val_loss = val_loss
            self.history.best_val_accuracy = val_acc
            self.history.best_epoch = self.epoch
            self._best_state = self.model.state_dict()

        self.epoch += 1
        if config.lr_decay_every and self.epoch % config.lr_decay_every == 0:
            self.optimizer.lr *= config.lr_decay
        if config.log_every and (
            self.epoch % config.log_every == 0 or self.epoch == config.epochs
        ):
            seconds = time.perf_counter() - started
            print(
                f"[trainer] epoch {self.epoch:>4}/{config.epochs}"
                f"  train {self.history.train_loss[-1]:.4f}"
                f"  val {val_loss:.4f}  acc {val_acc:.3f}"
                f"  lr {self.history.learning_rates[-1]:.2e}"
                f"  ({seconds:.2f}s)"
            )

    def _train_step(self, indices: np.ndarray) -> float:
        """One Adam step over the batch *indices*; returns the loss.

        Assemble, forward, backward, step.
        """
        # One batch in flight at a time, so the assembler's recycled
        # scratch buffers are safe (reuse_buffers contract).
        batch = self.train_assembler.assemble(indices, reuse_buffers=True)
        self.optimizer.zero_grad()
        loss = self.model.loss(batch)
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def _patience_exhausted(self) -> bool:
        patience = self.config.patience
        if patience is None or patience <= 0 or not self.dataset.validation:
            return False
        if self.history.best_epoch < 0:
            return False
        return (self.epoch - 1) - self.history.best_epoch >= patience

    def _finalize(self) -> None:
        if self.dataset.validation and self.history.best_epoch >= 0:
            self.model.load_state_dict(self._best_state)
        self.model.eval()

    # ---------------------------------------------------------- persistence
    def save_checkpoint(self, path: str) -> None:
        """Persist the full training state (atomic rename)."""
        payload = {
            "version": _CHECKPOINT_VERSION,
            "epoch": self.epoch,
            "model_state": self.model.state_dict(),
            "best_state": [a.copy() for a in self._best_state],
            "optimizer_state": self.optimizer.state_dict(),
            "lr": self.optimizer.lr,
            "shuffle_rng_state": self.rng.bit_generator.state,
            "dropout_rng_state": self.model.dropout.rng.bit_generator.state,
            "history": asdict(self.history),
            "config": {
                "seed": self.config.seed,
                "batch_size": self.config.batch_size,
                "epochs": self.config.epochs,
                "dtype": str(default_dtype()),
                # Dataset/model identity: resuming against a checkpoint
                # from a different netlist must fail even when parameter
                # shapes happen to line up.
                "feature_width": self.dataset.feature_width,
                "k": self.model.k,
                "n_train": len(self.dataset.train),
                "n_validation": len(self.dataset.validation),
            },
        }
        from repro.store import codec

        codec.dump(payload, path, kind=_CHECKPOINT_KIND)

    def load_checkpoint(self, path: str) -> None:
        """Restore a :meth:`save_checkpoint` state into this trainer."""
        from repro.store import codec

        try:
            payload = codec.load(path, kind=_CHECKPOINT_KIND)
        except codec.CodecError as exc:
            raise TrainingError(
                f"unreadable checkpoint {path!r} — corrupt, or written by "
                f"an older container format, pickle or npz ({exc})"
            ) from exc
        # Everything is validated before anything is assigned: a bad
        # payload must leave this trainer exactly as it was.
        if not isinstance(payload, dict):
            raise TrainingError(
                f"checkpoint {path!r} holds a {type(payload).__name__}, "
                "not a training-state mapping"
            )
        missing = sorted(_CHECKPOINT_FIELDS - payload.keys())
        if missing:
            raise TrainingError(f"checkpoint {path!r} lacks {missing}")
        version = payload["version"]
        if (
            version != _CHECKPOINT_VERSION
            and version not in _LEGACY_CHECKPOINT_VERSIONS
        ):
            raise TrainingError(
                f"unsupported checkpoint version {version!r}"
            )
        saved = payload["config"]
        if not (
            isinstance(saved, dict) and saved.keys() >= _CHECKPOINT_CONFIG_FIELDS
        ):
            raise TrainingError(
                f"checkpoint {path!r} config must map "
                f"{sorted(_CHECKPOINT_CONFIG_FIELDS)}, got {saved!r}"
            )
        if (
            saved["seed"] != self.config.seed
            or saved["batch_size"] != self.config.batch_size
        ):
            raise TrainingError(
                "checkpoint was written with a different seed/batch_size "
                f"({saved}) than this trainer's config"
            )
        if saved["dtype"] != str(default_dtype()):
            raise TrainingError(
                f"checkpoint was written under the {saved['dtype']} runtime "
                f"but the current runtime is {default_dtype()}; resuming "
                "across dtypes breaks bit-identical continuation "
                "(set REPRO_DTYPE / --dtype to match)"
            )
        current = {
            "feature_width": self.dataset.feature_width,
            "k": self.model.k,
            "n_train": len(self.dataset.train),
            "n_validation": len(self.dataset.validation),
        }
        mismatched = {
            key: (saved[key], value)
            for key, value in current.items()
            if saved[key] != value
        }
        if mismatched:
            raise TrainingError(
                "checkpoint belongs to a different dataset/model "
                f"(saved vs current: {mismatched})"
            )
        # Validate parameter-shape agreement across the whole payload
        # *before* assigning any state: a checkpoint from a different
        # architecture fails here with a clear error, not as a broadcast
        # error half-way through an in-place arena write.
        try:
            self._check_state_shapes(payload)
        except ValueError as exc:
            raise TrainingError(
                f"checkpoint {path!r} does not fit this model: {exc}"
            ) from exc
        try:
            epoch = int(payload["epoch"])
            lr = float(payload["lr"])
            int(payload["optimizer_state"]["t"])
        except (TypeError, ValueError) as exc:
            raise TrainingError(
                f"checkpoint {path!r} has a malformed epoch, lr or step: {exc}"
            ) from exc
        history = _saved_history(path, payload["history"])
        for name, generator in (
            ("shuffle_rng_state", self.rng),
            ("dropout_rng_state", self.model.dropout.rng),
        ):
            # Apply to a throwaway generator of the same kind first.
            probe = type(generator.bit_generator)(0)
            try:
                probe.state = payload[name]
            except (TypeError, ValueError, KeyError) as exc:
                raise TrainingError(
                    f"checkpoint {path!r} has an unusable {name}: {exc!r}"
                ) from exc
        # A v3 checkpoint from a second-order-optimizer run of older
        # code also carries ``optimizer_name`` and
        # ``preconditioner_state``; both are ignored, so it resumes as
        # plain Adam from the same moments.
        self.epoch = epoch
        self.model.load_state_dict(payload["model_state"])
        self._best_state = [a.copy() for a in payload["best_state"]]
        self.optimizer.load_state_dict(payload["optimizer_state"])
        self.optimizer.lr = lr
        self.rng.bit_generator.state = payload["shuffle_rng_state"]
        self.model.dropout.rng.bit_generator.state = payload["dropout_rng_state"]
        self.history = history
        # Re-derive the early-stop gate under *this* trainer's config: a
        # checkpoint written by an early-stopped run must resume training
        # when the patience budget has been raised or disabled.
        self.history.stopped_early = self._patience_exhausted()

    def _check_state_shapes(self, payload: dict) -> None:
        """Raise ``ValueError`` when any persisted array does not match
        this model's parameters (checked before anything is assigned)."""
        params = self.model.parameters()
        for name in ("model_state", "best_state"):
            state = payload[name]
            if len(state) != len(params):
                raise ValueError(
                    f"{name} has {len(state)} arrays, model has {len(params)}"
                )
            for i, (param, data) in enumerate(zip(params, state)):
                if np.asarray(data).shape != param.data.shape:
                    raise ValueError(
                        f"{name}[{i}] has shape {np.asarray(data).shape}, "
                        f"parameter has shape {param.data.shape}"
                    )
        optimizer_state = payload["optimizer_state"]
        if not (
            isinstance(optimizer_state, dict)
            and optimizer_state.keys() >= {"t", "m", "v"}
        ):
            raise ValueError("optimizer state must map 't', 'm' and 'v'")
        for name in ("m", "v"):
            moments = optimizer_state[name]
            if len(moments) != len(params):
                raise ValueError(
                    f"optimizer state has {len(moments)} {name!r} arrays, "
                    f"model has {len(params)} parameters"
                )
            for i, (param, data) in enumerate(zip(params, moments)):
                if np.asarray(data).shape != param.data.shape:
                    raise ValueError(
                        f"optimizer {name}[{i}] has shape "
                        f"{np.asarray(data).shape}, parameter has shape "
                        f"{param.data.shape}"
                    )


def _saved_history(path: str, saved) -> TrainHistory:
    """The :class:`TrainHistory` a checkpoint's ``history`` mapping holds."""
    if not isinstance(saved, dict):
        raise TrainingError(
            f"checkpoint {path!r} history is a {type(saved).__name__}, "
            "not a mapping"
        )
    unknown = sorted(saved.keys() - {f.name for f in fields(TrainHistory)})
    if unknown:
        raise TrainingError(
            f"checkpoint {path!r} history has unknown fields {unknown}"
        )
    history = dict(saved)
    history.setdefault("val_auc", [])  # absent in version-2 checkpoints
    return TrainHistory(**history)


def make_trainer(dataset: LinkDataset, config: TrainConfig = TrainConfig()):
    """Build the :class:`Trainer` that :func:`run_muxlink` trains with.

    Kept as a named seam: ``perfbench/spans.py`` patches
    ``repro.core.muxlink.make_trainer`` to time operator assembly.
    """
    return Trainer(dataset, config)


def train_link_predictor(
    dataset: LinkDataset, config: TrainConfig = TrainConfig()
) -> tuple[DGCNN, TrainHistory]:
    """Train a DGCNN on *dataset*, restoring the best-validation weights.

    Thin compatibility wrapper over :class:`Trainer` (which adds early
    stopping, LR scheduling and checkpoint/resume, all reachable through
    the :class:`TrainConfig` fields).

    Returns:
        ``(model, history)``; the model is in eval mode.
    """
    return Trainer(dataset, config).fit()
