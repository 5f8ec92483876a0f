"""Domain artifact payloads: exact round trips and stable content keys."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import knobs
from repro.benchgen import load_benchmark
from repro.core import MuxLinkConfig, rescore_key, run_muxlink
from repro.gnn import DGCNN, build_batch
from repro.linkpred import TrainConfig
from repro.locking import lock_dmux
from repro.netlist.bench import parse_bench, write_bench
from repro.store import (
    ArtifactStore,
    attack_store_key,
    circuit_digest,
    codec,
    config_token,
    decode_attack_artifact,
    decode_circuit,
    decode_lock_artifact,
    encode_attack_artifact,
    encode_circuit,
    encode_lock_artifact,
    lock_store_key,
)


@pytest.fixture(scope="module")
def locked():
    return lock_dmux(load_benchmark("c1355", scale=0.1), key_size=6, seed=1)


@pytest.fixture(scope="module")
def attack_result(locked):
    config = MuxLinkConfig(h=1, train=TrainConfig(epochs=2, seed=0), seed=0)
    return config, run_muxlink(locked.circuit, config)


# ---------------------------------------------------------------------------
# circuits — gate-order preservation is the load-bearing property
# ---------------------------------------------------------------------------
def test_circuit_roundtrip_preserves_gate_order(locked):
    decoded = decode_circuit(encode_circuit(locked.circuit))
    assert decoded.gate_names == locked.circuit.gate_names
    assert decoded.inputs == locked.circuit.inputs
    assert decoded.outputs == locked.circuit.outputs
    assert write_bench(decoded) == write_bench(locked.circuit)


def test_bench_roundtrip_does_not_preserve_gate_order(locked):
    """Why the store cannot just keep BENCH text: parsing re-resolves
    gates in dependency order, which permutes attack-graph node indices
    for any circuit whose insertion order is not topological (every
    locked netlist: the key MUX is inserted after its load gate)."""
    text = write_bench(locked.circuit)
    reparsed, _ = parse_bench(text, name=locked.circuit.name)
    assert set(reparsed.gate_names) == set(locked.circuit.gate_names)
    assert reparsed.gate_names != locked.circuit.gate_names


def test_decoded_circuit_attacks_bit_identically(locked):
    config = MuxLinkConfig(h=1, train=TrainConfig(epochs=1, seed=0), seed=0)
    original = run_muxlink(locked.circuit, config)
    decoded = run_muxlink(decode_circuit(encode_circuit(locked.circuit)), config)
    assert original.predicted_key == decoded.predicted_key
    assert [
        (s.mux_name, s.key_index, s.load, s.drivers, s.likelihoods)
        for s in original.scored
    ] == [
        (s.mux_name, s.key_index, s.load, s.drivers, s.likelihoods)
        for s in decoded.scored
    ]
    assert original.history.train_loss == decoded.history.train_loss


# ---------------------------------------------------------------------------
# lock artifacts
# ---------------------------------------------------------------------------
def test_lock_artifact_roundtrip(tmp_path, locked):
    path = tmp_path / "lock.npz"
    codec.dump(encode_lock_artifact(locked), path, kind="locks")
    back = decode_lock_artifact(codec.load(path, kind="locks"))
    assert back.key == locked.key
    assert back.scheme == locked.scheme
    assert back.original_name == locked.original_name
    assert back.localities == locked.localities
    assert back.circuit.gate_names == locked.circuit.gate_names
    assert write_bench(back.circuit, key=back.key) == write_bench(
        locked.circuit, key=locked.key
    )


# ---------------------------------------------------------------------------
# attack artifacts
# ---------------------------------------------------------------------------
def test_attack_artifact_roundtrip_is_bit_exact(tmp_path, attack_result):
    config, result = attack_result
    path = tmp_path / "attack.npz"
    codec.dump(encode_attack_artifact(result), path, kind="attacks")
    back = decode_attack_artifact(codec.load(path, kind="attacks"))

    assert back.predicted_key == result.predicted_key
    assert back.n_key_bits == result.n_key_bits
    assert back.runtime_seconds == result.runtime_seconds
    assert back.total_runtime == result.total_runtime
    assert [
        (s.mux_name, s.key_index, s.load, s.drivers, s.likelihoods)
        for s in back.scored
    ] == [
        (s.mux_name, s.key_index, s.load, s.drivers, s.likelihoods)
        for s in result.scored
    ]
    for likelihoods in ((s.likelihoods for s in back.scored),):
        for pair in likelihoods:
            assert isinstance(pair, tuple)
    assert back.history.train_loss == result.history.train_loss
    assert back.history.val_loss == result.history.val_loss
    assert back.history.best_epoch == result.history.best_epoch
    assert back.graph is None  # re-derive from the locked netlist


def test_columns_decode_as_per_element_conversion(attack_result):
    """Bulk ``tolist`` decodes each column exactly as per-element
    ``int``/``float`` did: same types, same bits."""
    config, result = attack_result
    payload = encode_attack_artifact(result)
    back = decode_attack_artifact(payload)
    sc, hist = payload["scored"], payload["history"]
    reference = [
        (int(k), int(load), int(d0), int(d1), float(l0).hex(), float(l1).hex())
        for k, load, d0, d1, l0, l1 in zip(
            sc["key_index"], sc["load"], sc["d0"], sc["d1"], sc["l0"], sc["l1"]
        )
    ]
    decoded = [
        (s.key_index, s.load, *s.drivers, *(x.hex() for x in s.likelihoods))
        for s in back.scored
    ]
    assert decoded == reference
    assert {type(v) for s in back.scored for v in (s.key_index, s.load, *s.drivers)} == {int}
    for name in ("train_loss", "val_loss", "val_accuracy", "val_auc"):
        column = getattr(back.history, name)
        assert [x.hex() for x in column] == [float(x).hex() for x in hist[name]]
        assert {type(x) for x in column} <= {float}


def test_attack_artifact_rescoring_matches(attack_result):
    config, result = attack_result
    back = decode_attack_artifact(encode_attack_artifact(result))
    for threshold in (0.0, 0.01, 0.5, 1.0):
        assert rescore_key(back, threshold) == rescore_key(result, threshold)


def test_attack_artifact_model_weights_roundtrip(attack_result):
    config, result = attack_result
    back = decode_attack_artifact(encode_attack_artifact(result))
    assert back.model is not None and back.model.k == result.model.k
    for ours, theirs in zip(back.model.state_dict(), result.model.state_dict()):
        np.testing.assert_array_equal(ours, theirs)


def test_attack_artifact_decode_draws_no_random_init(attack_result, monkeypatch):
    """The decoded model is built from its stored weights: bit-exact,
    in eval mode, and no random generator is ever drawn from."""
    config, result = attack_result
    payload = encode_attack_artifact(result)
    draws = []
    make_rng = np.random.default_rng

    class Spy:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            draws.append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(
        np.random, "default_rng", lambda *a, **k: Spy(make_rng(*a, **k))
    )
    back = decode_attack_artifact(payload)
    assert draws == []
    assert not back.model.training
    for ours, theirs in zip(back.model.state_dict(), result.model.state_dict()):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


def test_rebuilt_model_scores_identically(attack_result, locked):
    from repro.linkpred import (
        build_link_dataset,
        extract_attack_graph,
        sample_links,
    )

    config, result = attack_result
    back = decode_attack_artifact(encode_attack_artifact(result))
    graph = extract_attack_graph(locked.circuit)
    sample = sample_links(graph, max_links=60, val_fraction=0.2, seed=0)
    dataset = build_link_dataset(graph, sample, h=1)
    batch = build_batch(dataset.validation or dataset.train[:8])
    np.testing.assert_array_equal(
        back.model.predict_proba(batch), result.model.predict_proba(batch)
    )


# ---------------------------------------------------------------------------
# the model is built on first read; the payload is checked at decode
# ---------------------------------------------------------------------------
def _count_builds(monkeypatch) -> list:
    """Every DGCNN built from now on, in order."""
    built = []
    init = DGCNN.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DGCNN, "__init__", counting)
    return built


def test_decode_builds_no_model_until_it_is_read(attack_result, monkeypatch):
    config, result = attack_result
    payload = encode_attack_artifact(result)
    built = _count_builds(monkeypatch)
    back = decode_attack_artifact(payload)
    assert rescore_key(back, config.threshold) == result.predicted_key
    assert built == []
    model = back.model
    assert built == [model]
    assert back.model is model
    assert built == [model]


def _fewer_arrays(spec: dict) -> None:
    spec["state"] = spec["state"][:-1]


def _wrong_shape(spec: dict) -> None:
    spec["state"][0] = spec["state"][0][:-1]


def _small_k(spec: dict) -> None:
    spec["k"] = 9


def _string_entry(spec: dict) -> None:
    spec["state"][3] = "weights"


@pytest.mark.parametrize(
    "edit", [_fewer_arrays, _wrong_shape, _small_k, _string_entry]
)
def test_malformed_model_spec_fails_at_decode(attack_result, edit, tmp_path):
    """What ``DGCNN.from_state`` would refuse on first read does not
    decode at all, so the store discards it as undecodable."""
    config, result = attack_result
    payload = encode_attack_artifact(result)
    spec = payload["model"]
    spec["state"] = list(spec["state"])
    edit(spec)
    with pytest.raises(ValueError):
        DGCNN.from_state(spec["in_features"], spec["k"], spec["state"])
    with pytest.raises(ValueError):
        decode_attack_artifact(payload)
    store = ArtifactStore(tmp_path)
    store.put("attacks", "ab" * 32, payload)
    with pytest.warns(RuntimeWarning, match="undecodable"):
        assert store.get(
            "attacks", "ab" * 32, decoder=decode_attack_artifact
        ) is None


def _short_l1(payload: dict) -> None:
    payload["scored"]["l1"] = payload["scored"]["l1"][:3]


def _short_names(payload: dict) -> None:
    payload["scored"]["mux_name"] = payload["scored"]["mux_name"][:-1]


def _float_key_index(payload: dict) -> None:
    payload["scored"]["key_index"] = payload["scored"]["key_index"] * 1.0


def _int32_loss(payload: dict) -> None:
    history = payload["history"]
    history["train_loss"] = history["train_loss"].astype(np.int32)


@pytest.mark.parametrize(
    "edit", [_short_l1, _short_names, _float_key_index, _int32_loss]
)
def test_bad_column_is_undecodable(attack_result, edit, tmp_path):
    """A column shorter than its siblings, or of a dtype the encoder
    does not write, is a discarded store entry, never a truncated
    result."""
    config, result = attack_result
    payload = encode_attack_artifact(result)
    assert len(result.scored) > 3
    edit(payload)
    with pytest.raises(ValueError):
        decode_attack_artifact(payload)
    store = ArtifactStore(tmp_path)
    store.put("attacks", "ab" * 32, payload)
    with pytest.warns(RuntimeWarning, match="undecodable"):
        assert store.get(
            "attacks", "ab" * 32, decoder=decode_attack_artifact
        ) is None
    assert (store.stats.errors, store.stats.hits) == (1, 0)


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------
def test_config_token_normalizes_threshold():
    base = MuxLinkConfig(h=2, seed=3, train=TrainConfig(epochs=5))
    same = MuxLinkConfig(h=2, seed=3, train=TrainConfig(epochs=5), threshold=0.5)
    assert config_token(same) == config_token(base)
    different = [
        MuxLinkConfig(h=3, seed=3, train=TrainConfig(epochs=5)),
        MuxLinkConfig(h=2, seed=4, train=TrainConfig(epochs=5)),
        MuxLinkConfig(h=2, seed=3, train=TrainConfig(epochs=6)),
        MuxLinkConfig(h=2, seed=3, train=TrainConfig(epochs=5, seed=1)),
        MuxLinkConfig(h=2, seed=3, train=TrainConfig(epochs=5), use_degree=False),
        MuxLinkConfig(h=2, seed=3, train=TrainConfig(epochs=5), max_train_links=9),
    ]
    for config in different:
        assert config_token(config) != config_token(base)


def test_every_config_field_declares_one_role():
    roles = {
        (cls.__name__, field.name): knobs.role(field)
        for cls in (MuxLinkConfig, TrainConfig)
        for field in dataclasses.fields(cls)
    }
    assert set(roles.values()) <= set(knobs.ROLES), roles
    assert [name for name, role in roles.items() if role == knobs.POST] == [
        ("MuxLinkConfig", "threshold")
    ]
    assert sorted(n for (_, n), role in roles.items() if role == knobs.EXEC) == [
        "checkpoint_every", "checkpoint_path", "log_every", "resume",
        "score_prefetch",
    ]
    assert [name for name, role in roles.items() if role == knobs.KEY] == [
        ("MuxLinkConfig", "h"),
        ("MuxLinkConfig", "max_train_links"),
        ("MuxLinkConfig", "val_fraction"),
        ("MuxLinkConfig", "train"),
        ("MuxLinkConfig", "use_degree"),
        ("MuxLinkConfig", "seed"),
        ("TrainConfig", "epochs"),
        ("TrainConfig", "learning_rate"),
        ("TrainConfig", "batch_size"),
        ("TrainConfig", "sortpool_percentile"),
        ("TrainConfig", "seed"),
        ("TrainConfig", "patience"),
    ]


def _with(config: MuxLinkConfig, **values) -> MuxLinkConfig:
    """*config* with each named field of it or of its ``train`` set."""
    train_names = {field.name for field in dataclasses.fields(TrainConfig)}
    train = {k: v for k, v in values.items() if k in train_names}
    return dataclasses.replace(
        config,
        train=dataclasses.replace(config.train, **train),
        **{k: v for k, v in values.items() if k not in train_names},
    )


def _artifact_bytes(result) -> bytes:
    """The attack artifact's encoded bytes, wall-clock runtimes aside."""
    payload = encode_attack_artifact(result)
    del payload["runtime_seconds"]
    return codec.dumps(payload, "attacks")


def test_exec_fields_never_move_a_bit(tmp_path, locked, attack_result):
    """Every ``exec`` field at a non-default value leaves the store token
    and the attack artifact byte-identical."""
    config, result = attack_result
    every = tmp_path / "every.ckpt"
    final = tmp_path / "final.ckpt"
    runs = [
        {"score_prefetch": 0},
        {"log_every": 1},
        {"checkpoint_path": str(every), "checkpoint_every": 1},
        {"checkpoint_path": str(final)},
        {"checkpoint_path": str(final), "resume": True},  # from the run above
    ]
    exec_fields = {
        field.name
        for cls in (MuxLinkConfig, TrainConfig)
        for field in dataclasses.fields(cls)
        if knobs.role(field) == knobs.EXEC
    }
    assert {name for run in runs for name in run} == exec_fields
    for values in runs:
        changed = _with(config, **values)
        assert config_token(changed) == config_token(config), values
        assert _artifact_bytes(run_muxlink(locked.circuit, changed)) == (
            _artifact_bytes(result)
        ), values
    assert every.exists() and final.exists()


def test_config_token_tracks_runtime_dtype():
    import repro.nn as nn

    config = MuxLinkConfig()
    with nn.dtype_scope(np.float64):
        token64 = config_token(config)
    with nn.dtype_scope(np.float32):
        token32 = config_token(config)
    assert token64 != token32


def test_store_keys_are_stable_hex(locked):
    digest = circuit_digest(locked.circuit)
    assert len(digest) == 64 and int(digest, 16) >= 0
    # Cosmetic differences do not move the digest: the design does.
    renamed = locked.circuit.copy(name="some-other-file-stem")
    assert circuit_digest(renamed) == digest
    key = attack_store_key(digest, MuxLinkConfig())
    assert len(key) == 64 and key == attack_store_key(digest, MuxLinkConfig())
    lkey = lock_store_key(digest, "D-MUX", 64, 123)
    assert len(lkey) == 64
    assert lkey != lock_store_key(digest, "D-MUX", 64, 124)
    assert lkey != lock_store_key(digest, "D-MUX", 32, 123)
    assert lkey != lock_store_key(digest, "Symmetric-MUX", 64, 123)


def _uncached_digest(circuit):
    """The digest's definition, recomputed from the BENCH text."""
    text = "\n".join(
        line
        for line in write_bench(circuit).splitlines()
        if not line.startswith("#")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_circuit_digest_cache_follows_every_edit():
    from repro.netlist import Circuit, Gate, GateType

    circuit = Circuit(
        "c", inputs=["a", "b"], outputs=["g1"],
        gates=[
            Gate("g1", GateType.AND, ("a", "b")),
            Gate("g2", GateType.OR, ("a", "b")),
        ],
    )
    edits = [
        lambda c: c.add_input("x"),
        lambda c: c.add_gate(Gate("g3", GateType.NAND, ("g1", "x"))),
        lambda c: c.add_output("g2"),
        lambda c: c.redirect_output("g2", "g3"),
        lambda c: c.rewire_input("g3", "x", "b"),
        lambda c: c.replace_gate(Gate("g3", GateType.NOR, ("g1", "b"))),
        lambda c: c.rename_gate("g3", "g4"),
        lambda c: c.remove_input("x"),
        lambda c: c.redirect_output("g4", "g1"),
        lambda c: c.remove_gate("g4"),
    ]
    digests = {circuit_digest(circuit)}
    for edit in edits:
        before = circuit.copy()
        assert circuit_digest(before) == circuit_digest(circuit)
        edit(circuit)
        digest = circuit_digest(circuit)
        assert digest == _uncached_digest(circuit)
        digests.add(digest)
        # The copy taken before the edit keeps its own, older digest.
        assert circuit_digest(before) == _uncached_digest(before) != digest
    assert len(digests) == len(edits) + 1
    renamed = circuit.copy(name="other")
    assert circuit_digest(renamed) == circuit_digest(circuit)
    rebuilt = Circuit.from_parts(
        "r", list(circuit.inputs), list(circuit.outputs), list(circuit.gates)
    )
    assert circuit_digest(rebuilt) == circuit_digest(circuit)


def test_store_address_is_pinned():
    """The literal token and key of one fixed config never move, nor do
    the keys of every Fig. 7 cell at the three scale presets.

    Any change that re-keys the store (a renamed field, a knob folded in
    or dropped, a new serialization) fails here, because existing
    artifacts would silently stop hitting.  Bump ``ARTIFACT_VERSION`` and
    these literals together when a re-key is intended.
    """
    import hashlib

    import repro.nn as nn
    from repro.experiments import CI_SCALE, PAPER_SCALE, SMOKE_SCALE
    from repro.experiments.fig7 import fig7_cells

    config = MuxLinkConfig(
        h=2, seed=3, train=TrainConfig(epochs=5, learning_rate=1e-3)
    )
    with nn.dtype_scope(np.float32):
        token = config_token(config)
        key = attack_store_key("0" * 64, config)
        grid_keys = "".join(
            attack_store_key("0" * 64, cell.config)
            for scale in (SMOKE_SCALE, CI_SCALE, PAPER_SCALE)
            for seed in (0, 1)
            for cell in fig7_cells(scale, seed)
        )
    assert token == (
        '{"dtype":"float32","h":2,"max_train_links":100000,"seed":3,'
        '"train":{"batch_size":50,"epochs":5,"grad_shards":1,'
        '"learning_rate":0.001,"lr_decay":1.0,"lr_decay_every":0,'
        '"optimizer":"adam","patience":null,"seed":0,'
        '"sortpool_percentile":0.6},"use_degree":true,"use_drnl":true,'
        '"use_gate_types":true,"v":2,"val_fraction":0.1}'
    )
    assert key == "0bf3fc776c4c4f9be1da0b3b7c89a63fd48e4e20f6f3e9131fb9b5a39e0c418a"
    assert len(grid_keys) == 168 * 64
    assert (
        hashlib.sha256(grid_keys.encode()).hexdigest()
        == "b00aa3c48c2c942f7e6ce55f181250891d51fee5e3fe9d7c83023e110a0efc0b"
    )
