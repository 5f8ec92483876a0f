"""The uniform baseline-attack interface and its store identity."""

import pytest

from repro.attacks import (
    BaselineConfig,
    BaselineReport,
    SweepAttack,
    random_guess_attack,
    run_baseline_attack,
    saam_attack,
)
from repro.benchgen import random_netlist
from repro.errors import AttackError
from repro.locking import lock_dmux, lock_xor
from repro.netlist import Circuit, Gate, GateType
from repro.store import (
    baseline_config_token,
    baseline_store_key,
    decode_baseline_artifact,
    encode_baseline_artifact,
)


def base(seed=0):
    return random_netlist("base", 10, 5, 110, seed=seed)


# ------------------------------------------------------------ dispatch
def test_config_rejects_unknown_attack():
    with pytest.raises(AttackError, match="unknown baseline attack"):
        BaselineConfig(attack="sat")


def test_dispatch_runs_every_attack():
    locked = lock_dmux(base(), key_size=8, seed=1)
    train = [lock_dmux(base(seed=s), key_size=8, seed=s + 1) for s in (2, 3)]
    for attack in ("saam", "scope", "random"):
        report = run_baseline_attack(locked.circuit, BaselineConfig(attack=attack))
        assert report.attack == attack
        assert len(report.predicted_key) == 8
    report = run_baseline_attack(
        locked.circuit, BaselineConfig(attack="sweep"), train=train
    )
    assert report.attack == "sweep"
    assert len(report.predicted_key) == 8


def test_sweep_without_corpus_is_an_error():
    locked = lock_dmux(base(), key_size=8, seed=1)
    with pytest.raises(AttackError, match="training corpus"):
        run_baseline_attack(locked.circuit, BaselineConfig(attack="sweep"))


def test_saam_scores_follow_sign_convention():
    """Positive score backs bit "0": hard-coding 1 removed more logic."""
    locked = lock_xor(base(), key_size=8, seed=1)
    report = run_baseline_attack(locked.circuit, BaselineConfig(attack="saam"))
    reference = saam_attack(locked.circuit)
    assert report.predicted_key == reference.predicted_key
    for (bit, value), removed in reference.reductions.items():
        assert bit in report.scores
    for bit, score in report.scores.items():
        r0 = reference.reductions.get((bit, 0), 0)
        r1 = reference.reductions.get((bit, 1), 0)
        assert score == pytest.approx(r1 - r0)


def test_random_report_has_no_scores():
    locked = lock_dmux(base(), key_size=8, seed=1)
    config = BaselineConfig(attack="random", seed=7)
    report = run_baseline_attack(locked.circuit, config)
    assert report.scores == {}
    assert report.predicted_key == random_guess_attack(locked.circuit, seed=7)


# ------------------------------------------- SWEEP shape validation (PR 8)
def test_sweep_rejects_feature_dim_mismatch():
    """A target whose design_features dim differs from the training fit
    must raise AttackError naming both dims, not crash in numpy."""
    train = [lock_dmux(base(seed=s), key_size=8, seed=s + 1) for s in (2, 3)]
    attack = SweepAttack().fit(train)
    n_dims = attack._weights.shape[0]
    attack._weights = attack._weights[: n_dims - 2]
    locked = lock_dmux(base(), key_size=8, seed=1)
    with pytest.raises(
        AttackError, match=rf"{n_dims}-dim.*{n_dims - 2}-dim"
    ):
        attack.attack(locked.circuit)


# ------------------------------------------------- non-contiguous keys
def _holey_circuit():
    """keyinput0 and keyinput2 present, keyinput1 missing."""
    return Circuit.from_parts(
        name="holey",
        inputs=["a", "b", "keyinput0", "keyinput2"],
        gates=[
            Gate("m0", GateType.MUX, ("keyinput0", "a", "b")),
            Gate("m2", GateType.MUX, ("keyinput2", "b", "a")),
            Gate("out", GateType.AND, ("m0", "m2")),
        ],
        outputs=["out"],
    )


def test_random_guess_fills_key_holes_with_x():
    predicted = random_guess_attack(_holey_circuit(), seed=0)
    assert len(predicted) == 3
    assert predicted[1] == "x"
    assert predicted[0] in "01" and predicted[2] in "01"


def test_saam_fills_key_holes_with_x():
    report = saam_attack(_holey_circuit())
    assert len(report.predicted_key) == 3
    assert report.predicted_key[1] == "x"


# ------------------------------------------------------- store identity
def test_config_token_drops_inert_knobs():
    """Only result-affecting knobs key the artifact: SAAM ignores all of
    them, and the coin seed matters only under undecided='coin'."""
    assert baseline_config_token(
        BaselineConfig(attack="saam", seed=1, margin=0.5)
    ) == baseline_config_token(BaselineConfig(attack="saam", seed=9))
    assert baseline_config_token(
        BaselineConfig(attack="scope", undecided="x", seed=1)
    ) == baseline_config_token(BaselineConfig(attack="scope", undecided="x", seed=2))
    assert baseline_config_token(
        BaselineConfig(attack="scope", undecided="coin", seed=1)
    ) != baseline_config_token(
        BaselineConfig(attack="scope", undecided="coin", seed=2)
    )
    assert baseline_config_token(
        BaselineConfig(attack="sweep", margin=1e-3, undecided="x")
    ) != baseline_config_token(
        BaselineConfig(attack="sweep", margin=1e-6, undecided="x")
    )


def test_store_key_is_order_sensitive_in_train():
    """SWEEP's normal-equation reduction is float-order-sensitive, so the
    corpus is an ordered tuple in the artifact identity."""
    config = BaselineConfig(attack="sweep", undecided="x")
    pairs = (("d1", "0101"), ("d2", "1010"))
    assert baseline_store_key("t", config, pairs) != baseline_store_key(
        "t", config, pairs[::-1]
    )
    assert baseline_store_key("t", config, pairs) == baseline_store_key(
        "t", config, pairs
    )
    assert baseline_store_key("t", config, pairs) != baseline_store_key(
        "u", config, pairs
    )


def test_baseline_artifact_round_trip():
    report = BaselineReport(
        attack="scope",
        predicted_key="01x0",
        scores={0: 1.5, 2: -0.25, 3: 0.0},
        n_blind=1,
        runtime_seconds=0.125,
    )
    decoded = decode_baseline_artifact(encode_baseline_artifact(report))
    assert decoded == report


def test_baseline_artifact_round_trip_empty_scores():
    report = BaselineReport(attack="random", predicted_key="1101", n_blind=4)
    decoded = decode_baseline_artifact(encode_baseline_artifact(report))
    assert decoded.scores == {}
    assert decoded == report


def test_baseline_artifact_with_a_short_column_does_not_decode():
    report = BaselineReport(
        attack="scope", predicted_key="01x0",
        scores={0: 1.5, 2: -0.25, 3: 0.0}, n_blind=1,
    )
    payload = encode_baseline_artifact(report)
    payload["score_values"] = payload["score_values"][:2]
    with pytest.raises(ValueError):
        decode_baseline_artifact(payload)
