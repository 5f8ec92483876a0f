"""Domain payloads and content keys for the artifact store.

Three artifact families exist:

* **locks** — a :class:`~repro.locking.LockedCircuit`, keyed by the base
  netlist digest + scheme + key size + lock seed.  The circuit is
  serialized *gate order preserving*: attack-graph node indices follow
  ``Circuit.gates`` iteration order, so a BENCH round trip (which
  re-topologicalizes) would silently change every downstream RNG draw —
  the payload therefore records the exact insertion order and is rebuilt
  through :meth:`~repro.netlist.Circuit.from_parts`.
* **attacks** — a :class:`~repro.core.muxlink.MuxLinkResult`, keyed by
  the locked netlist digest + a *semantic* hash of the
  :class:`~repro.core.muxlink.MuxLinkConfig` (its ``key`` fields only,
  see :mod:`repro.knobs`; numeric runtime dtype folded in).  Per-MUX likelihoods, the loss history, runtimes and the trained
  DGCNN weights are stored as float64/float32 arrays, so a rematerialized
  record is bit-identical to the in-memory one.  Decoding checks the
  weights' count and shapes but defers building the DGCNN to the first
  read of ``result.model``: rescoring needs only the likelihoods.
* **baselines** — a :class:`~repro.attacks.baseline.BaselineReport`
  from the oracle-less attack zoo (SAAM / SCOPE / SWEEP / random),
  keyed by the locked netlist digest + a per-attack normalized config
  token + (for the supervised SWEEP) the ordered training corpus.
  Because the netlist digest is oracle-less, the training locks'
  *keys* are folded into the address explicitly — a corpus with
  different ground truth is a different trained attack.
* **checkpoints** — :class:`~repro.linkpred.trainer.Trainer` state; the
  trainer builds/consumes that payload itself, through the same codec.

An attack artifact payload is also the **job exchange format** of the
runner's scheduler boundary: a worker (local process today, remote host
tomorrow) receives a lock payload + config, and ships back exactly the
dict that :func:`encode_attack_artifact` produces — the parent decodes
it once and writes it through to the store unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any

from repro import knobs
from repro.locking.common import Locality, LockedCircuit, MuxInstance, Strategy
from repro.netlist import Circuit, Gate, GateType
from repro.netlist.bench import write_bench

__all__ = [
    "attack_store_key",
    "baseline_config_token",
    "baseline_store_key",
    "circuit_digest",
    "config_token",
    "decode_attack_artifact",
    "decode_baseline_artifact",
    "decode_circuit",
    "decode_lock_artifact",
    "encode_attack_artifact",
    "encode_baseline_artifact",
    "encode_circuit",
    "encode_lock_artifact",
    "lock_store_key",
]

#: Bump when the payload layouts below change incompatibly.  Folded into
#: every content key, so a format change invalidates (rather than
#: misreads) existing entries.  Version 2: the config token grew two
#: training-engine entries (now constants, see :func:`config_token`),
#: and attack histories carry the per-epoch validation AUC.
ARTIFACT_VERSION = 2


def _hexdigest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def circuit_digest(circuit: Circuit) -> str:
    """sha256 of the circuit's canonical BENCH text, comments stripped.

    Comment lines are cosmetic — the ``# <name>`` header would otherwise
    make the digest depend on what a BENCH file happened to be called,
    and a ``#key=`` line would leak the oracle into an oracle-less
    attack's address.  The digest covers exactly the design: inputs,
    outputs, and topologically-ordered gate definitions.  It is cached on
    the circuit until its next edit (:meth:`Circuit.derived`), so keying
    repeated requests for one netlist serializes it once.
    """
    return circuit.derived(
        "store.digest",
        lambda: _hexdigest(
            "\n".join(
                line
                for line in write_bench(circuit).splitlines()
                if not line.startswith("#")
            )
        ),
    )


#: Constants of retired attack knobs, kept in every config's token at
#: the value all attacks ran with so no stored key moves: the one
#: training engine (Adam at a fixed learning rate, no gradient shards)
#: and the paper's always-present gate-type and DRNL feature blocks.
_PINNED = {
    "MuxLinkConfig": {"use_drnl": True, "use_gate_types": True},
    "TrainConfig": {
        "optimizer": "adam",
        "grad_shards": 1,
        "lr_decay": 1.0,
        "lr_decay_every": 0,
    },
}


def config_token(config) -> str:
    """Canonical JSON of every result-affecting attack knob.

    The token holds exactly the fields whose role is ``key``
    (:mod:`repro.knobs`), nested configs included, plus the pinned
    constants above, :data:`ARTIFACT_VERSION` and the numeric runtime
    dtype (float32 and float64 runs are different artifacts).  ``post``
    and ``exec`` fields stay out: a hit re-applies the one and the other
    never moves a bit.
    """
    from repro.nn import default_dtype

    return json.dumps(
        {
            **knobs.values(config, knobs.keyed, _PINNED),
            "v": ARTIFACT_VERSION,
            "dtype": str(default_dtype()),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def attack_store_key(digest: str, config) -> str:
    """Content address of one trained attack: netlist digest + config hash.

    *digest* is :func:`circuit_digest` of the locked netlist **without**
    the key comment — the attack is oracle-less, and the figure runner
    and ``repro attack --store`` must derive the same address for the
    same design.  Because the digest covers the *canonical* (topological)
    BENCH text, a hit may return an artifact trained on a
    gate-order-permuted copy of the netlist: a valid attack on the same
    design, though node-order-sensitive RNG draws mean it can differ at
    the bit level from what this process would have computed cold.
    """
    return _hexdigest(f"{digest}|{config_token(config)}")


def lock_store_key(
    base_digest: str, scheme: str, key_size: int, lock_seed: int
) -> str:
    """Content address of one locked netlist."""
    return _hexdigest(
        json.dumps(
            {
                "v": ARTIFACT_VERSION,
                "base": base_digest,
                "scheme": scheme,
                "key_size": int(key_size),
                "lock_seed": int(lock_seed),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    )


def baseline_config_token(config) -> str:
    """Canonical JSON of one baseline attack's result-affecting knobs.

    Normalization is per attack: SAAM is knob-free; the random floor is
    seeded only; SCOPE keys on its decision threshold; SWEEP on margin
    and ridge.  ``undecided`` changes the report for SCOPE/SWEEP, and
    the coin ``seed`` is folded in **only** when ``undecided="coin"`` —
    under ``"x"`` the seed is inert, and keying on inert knobs would
    split identical reports across addresses.
    """
    attack = config.attack
    knobs: dict[str, Any] = {}
    if attack == "random":
        knobs["seed"] = int(config.seed)
    elif attack == "scope":
        knobs["threshold"] = float(config.threshold)
        knobs["undecided"] = config.undecided
        if config.undecided == "coin":
            knobs["seed"] = int(config.seed)
    elif attack == "sweep":
        knobs["margin"] = float(config.margin)
        knobs["ridge"] = float(config.ridge)
        knobs["undecided"] = config.undecided
        if config.undecided == "coin":
            knobs["seed"] = int(config.seed)
    elif attack != "saam":
        raise ValueError(f"unknown baseline attack {attack!r}")
    return json.dumps(
        {"v": ARTIFACT_VERSION, "attack": attack, **knobs},
        sort_keys=True,
        separators=(",", ":"),
    )


def baseline_store_key(
    digest: str, config, train: tuple[tuple[str, str], ...] = ()
) -> str:
    """Content address of one baseline attack report.

    *digest* is :func:`circuit_digest` of the locked target; *train* is
    the **ordered** SWEEP corpus as ``(lock_digest, key)`` pairs.  Order
    is preserved (the normal-equation reduction is float-order
    sensitive) and the keys appear explicitly because the oracle-less
    circuit digest deliberately excludes them.
    """
    return _hexdigest(
        json.dumps(
            {
                "target": digest,
                "config": baseline_config_token(config),
                "train": [[d, k] for d, k in train],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    )


# ---------------------------------------------------------------------------
# Circuit — gate-order-preserving (see module docstring)
# ---------------------------------------------------------------------------
def encode_circuit(circuit: Circuit) -> dict:
    return {
        "name": circuit.name,
        "inputs": list(circuit.inputs),
        "outputs": list(circuit.outputs),
        "gates": [
            [gate.name, gate.gate_type.value, list(gate.inputs)]
            for gate in circuit.gates
        ],
    }


def decode_circuit(payload: dict) -> Circuit:
    return Circuit.from_parts(
        name=payload["name"],
        inputs=list(payload["inputs"]),
        outputs=list(payload["outputs"]),
        gates=[
            Gate(name, GateType(type_value), tuple(inputs))
            for name, type_value, inputs in payload["gates"]
        ],
    )


# ---------------------------------------------------------------------------
# LockedCircuit
# ---------------------------------------------------------------------------
def encode_lock_artifact(locked: LockedCircuit) -> dict:
    return {
        "version": ARTIFACT_VERSION,
        "circuit": encode_circuit(locked.circuit),
        "key": locked.key,
        "scheme": locked.scheme,
        "original_name": locked.original_name,
        "localities": [
            {
                "strategy": locality.strategy.value,
                "muxes": [
                    {
                        "mux_name": mux.mux_name,
                        "key_index": mux.key_index,
                        "load_gate": mux.load_gate,
                        "true_net": mux.true_net,
                        "false_net": mux.false_net,
                        "select_for_true": mux.select_for_true,
                    }
                    for mux in locality.muxes
                ],
            }
            for locality in locked.localities
        ],
    }


def decode_lock_artifact(payload: dict) -> LockedCircuit:
    return LockedCircuit(
        circuit=decode_circuit(payload["circuit"]),
        key=payload["key"],
        localities=[
            Locality(
                strategy=Strategy(loc["strategy"]),
                muxes=tuple(
                    MuxInstance(
                        mux_name=mux["mux_name"],
                        key_index=int(mux["key_index"]),
                        load_gate=mux["load_gate"],
                        true_net=mux["true_net"],
                        false_net=mux["false_net"],
                        select_for_true=int(mux["select_for_true"]),
                    )
                    for mux in loc["muxes"]
                ),
            )
            for loc in payload["localities"]
        ],
        scheme=payload["scheme"],
        original_name=payload["original_name"],
    )


# ---------------------------------------------------------------------------
# MuxLinkResult
# ---------------------------------------------------------------------------
def encode_attack_artifact(result) -> dict:
    """Serialize a :class:`~repro.core.muxlink.MuxLinkResult`.

    The attack graph is *not* persisted (it is cheap to re-derive from
    the locked netlist and nothing downstream of the runner reads it);
    the trained DGCNN weights are, so a rematerialized result can rescore
    and re-predict.  Likelihoods, losses and runtimes are stored as
    float64 npz entries — bit-exact round trips by construction.
    """
    import numpy as np

    scored = result.scored
    model = result.model
    payload: dict[str, Any] = {
        "version": ARTIFACT_VERSION,
        "predicted_key": result.predicted_key,
        "n_key_bits": int(result.n_key_bits),
        "scored": {
            "mux_name": [s.mux_name for s in scored],
            "key_index": np.array([s.key_index for s in scored], dtype=np.int64),
            "load": np.array([s.load for s in scored], dtype=np.int64),
            "d0": np.array([s.drivers[0] for s in scored], dtype=np.int64),
            "d1": np.array([s.drivers[1] for s in scored], dtype=np.int64),
            "l0": np.array([s.likelihoods[0] for s in scored], dtype=np.float64),
            "l1": np.array([s.likelihoods[1] for s in scored], dtype=np.float64),
        },
        "history": {
            "train_loss": np.array(result.history.train_loss, dtype=np.float64),
            "val_loss": np.array(result.history.val_loss, dtype=np.float64),
            "val_accuracy": np.array(
                result.history.val_accuracy, dtype=np.float64
            ),
            "val_auc": np.array(result.history.val_auc, dtype=np.float64),
            "learning_rates": np.array(
                result.history.learning_rates, dtype=np.float64
            ),
            "best_epoch": int(result.history.best_epoch),
            "best_val_accuracy": float(result.history.best_val_accuracy),
            "best_val_loss": float(result.history.best_val_loss),
            "stopped_early": bool(result.history.stopped_early),
        },
        "runtime_seconds": {
            stage: float(seconds)
            for stage, seconds in result.runtime_seconds.items()
        },
    }
    if model is not None:
        payload["model"] = {
            "in_features": int(model.gc_layers[0].weight.data.shape[0]),
            "k": int(model.k),
            "state": model.state_dict(),
        }
    return payload


def _column(array, dtype) -> list:
    """A 1-D *dtype* array as a list of Python numbers.

    ``tolist`` of the int64 and float64 columns the encoders write
    equals per-element ``int``/``float``, bit for bit; any other column
    does not decode.
    """
    if array.dtype != dtype or array.ndim != 1:
        raise ValueError(f"a column is not a 1-D {dtype.__name__} array")
    return array.tolist()


def decode_attack_artifact(payload: dict):
    """Rebuild a :class:`~repro.core.muxlink.MuxLinkResult` from a payload.

    ``graph`` comes back as ``None`` (re-derive it from the locked
    netlist when needed).  The model spec is checked here, so a payload
    whose weights would not load does not decode, but the DGCNN itself
    is built from its stored weights (in eval mode, adopting the
    payload's arrays) the first time ``result.model`` is read: a hit
    that is only rescored never builds it.  Parallel columns of
    different lengths do not decode.
    """
    # Local imports: repro.core imports repro.store at module load, so
    # pulling core symbols in at *this* module's load would be a cycle.
    import numpy as np

    from repro.core.muxlink import MuxLinkResult
    from repro.core.postprocess import ScoredMux
    from repro.gnn import DGCNN
    from repro.linkpred import TrainHistory

    sc = payload["scored"]
    scored = [
        ScoredMux(name, key_index, load, (d0, d1), (l0, l1))
        for name, key_index, load, d0, d1, l0, l1 in zip(
            sc["mux_name"],
            *(_column(sc[c], np.int64) for c in ("key_index", "load", "d0", "d1")),
            *(_column(sc[c], np.float64) for c in ("l0", "l1")),
            strict=True,
        )
    ]
    hist = payload["history"]
    history = TrainHistory(
        train_loss=_column(hist["train_loss"], np.float64),
        val_loss=_column(hist["val_loss"], np.float64),
        val_accuracy=_column(hist["val_accuracy"], np.float64),
        val_auc=_column(hist["val_auc"], np.float64),
        learning_rates=_column(hist["learning_rates"], np.float64),
        best_epoch=int(hist["best_epoch"]),
        best_val_accuracy=float(hist["best_val_accuracy"]),
        best_val_loss=float(hist["best_val_loss"]),
        stopped_early=bool(hist["stopped_early"]),
    )
    model = None
    if "model" in payload:
        spec = payload["model"]
        in_features, k = int(spec["in_features"]), int(spec["k"])
        state = list(spec["state"])
        DGCNN.check_state(in_features, k, state)
        model = functools.partial(DGCNN.from_state, in_features, k, state)
    return MuxLinkResult(
        predicted_key=payload["predicted_key"],
        scored=scored,
        n_key_bits=int(payload["n_key_bits"]),
        history=history,
        runtime_seconds={
            stage: float(seconds)
            for stage, seconds in payload["runtime_seconds"].items()
        },
        graph=None,
        model=model,
    )


# ---------------------------------------------------------------------------
# BaselineReport
# ---------------------------------------------------------------------------
def encode_baseline_artifact(report) -> dict:
    """Serialize a :class:`~repro.attacks.baseline.BaselineReport`.

    Per-bit scores travel as sorted parallel int64/float64 arrays —
    bit-exact round trips, same discipline as the attack artifact.
    """
    import numpy as np

    bits = sorted(report.scores)
    return {
        "version": ARTIFACT_VERSION,
        "attack": report.attack,
        "predicted_key": report.predicted_key,
        "score_bits": np.array(bits, dtype=np.int64),
        "score_values": np.array(
            [report.scores[bit] for bit in bits], dtype=np.float64
        ),
        "n_blind": int(report.n_blind),
        "runtime_seconds": float(report.runtime_seconds),
    }


def decode_baseline_artifact(payload: dict):
    """Rebuild a :class:`~repro.attacks.baseline.BaselineReport`."""
    from repro.attacks.baseline import BaselineReport

    return BaselineReport(
        attack=str(payload["attack"]),
        predicted_key=str(payload["predicted_key"]),
        scores={
            int(bit): float(value)
            for bit, value in zip(
                payload["score_bits"], payload["score_values"], strict=True
            )
        },
        n_blind=int(payload["n_blind"]),
        runtime_seconds=float(payload["runtime_seconds"]),
    )
