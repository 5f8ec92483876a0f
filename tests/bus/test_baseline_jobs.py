"""Baseline jobs are first-class bus citizens alongside MuxLink jobs."""

import threading

import pytest

from repro.attacks import BaselineConfig, run_baseline_attack
from repro.benchgen import random_netlist
from repro.core import MuxLinkConfig
from repro.errors import ServeError
from repro.experiments.socketbus import SocketBus
from repro.jobs import KINDS, Job, execute_job
from repro.locking import lock_dmux
from repro.serve import run_worker
from repro.store import (
    decode_baseline_artifact,
    decode_circuit,
    encode_circuit,
    encode_lock_artifact,
)
from repro.wire import decode_job, encode_job


def _baseline_job(attack="scope", train=()):
    locked = lock_dmux(
        random_netlist("base", 8, 4, 80, seed=0), key_size=6, seed=1
    )
    return Job(
        kind="baseline",
        store_key="k" * 64,
        circuit=encode_circuit(locked.circuit),
        config=BaselineConfig(attack=attack, undecided="coin", seed=5),
        train=tuple(encode_lock_artifact(t) for t in train),
    )


def test_kind_registry():
    assert {kind: spec.store_kind for kind, spec in KINDS.items()} == {
        "attack": "attacks",
        "baseline": "baselines",
    }
    assert KINDS["attack"].config_class is MuxLinkConfig
    assert KINDS["baseline"].config_class is BaselineConfig
    # Only a kind that trains on a corpus ships one on the wire.
    assert "train" not in encode_job(
        Job(kind="attack", store_key="a", circuit={}, config=MuxLinkConfig())
    )


def test_baseline_job_wire_round_trip():
    job = _baseline_job()
    payload = encode_job(job)
    assert payload["kind"] == "baseline"
    assert payload["train"] == []
    decoded = decode_job(payload)
    assert isinstance(decoded, Job)
    assert decoded.kind == "baseline"
    assert decoded.spec.store_kind == "baselines"
    assert decoded.store_key == job.store_key
    assert decoded.config == job.config
    assert decoded.train == ()


def test_baseline_job_wire_round_trip_with_train():
    train = [
        lock_dmux(random_netlist("base", 8, 4, 80, seed=s), key_size=6, seed=s)
        for s in (2, 3)
    ]
    job = _baseline_job(attack="sweep", train=train)
    decoded = decode_job(encode_job(job))
    assert len(decoded.train) == 2
    artifact = execute_job(decoded)
    report = decode_baseline_artifact(artifact)
    assert report.attack == "sweep"
    assert len(report.predicted_key) == 6


def test_decode_rejects_unknown_kind():
    payload = encode_job(_baseline_job())
    payload["kind"] = "mystery"
    with pytest.raises(ServeError, match="unknown job kind"):
        decode_job(payload)


def test_decode_refuses_a_payload_without_kind():
    """Every encoder writes ``kind``: a payload without one is refused,
    never decoded as an attack job."""
    payload = encode_job(_baseline_job())
    del payload["kind"]
    with pytest.raises(ServeError, match="undecodable job: missing kind"):
        decode_job(payload)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda c: c.update(knob=1), "unknown BaselineConfig field 'knob'"),
        (lambda c: c.pop("seed"), "missing BaselineConfig field 'seed'"),
        (lambda c: c.update(attack="mystery"), "unknown baseline attack"),
    ],
    ids=["unknown-field", "missing-field", "bad-value"],
)
def test_decode_rejects_undecodable_baseline_config(edit, match):
    payload = encode_job(_baseline_job())
    edit(payload["config"])
    with pytest.raises(ServeError, match=match):
        decode_job(payload)


def test_decode_rejects_undecodable_attack_config():
    from repro.experiments import SMOKE_SCALE, make_cell

    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
    payload = encode_job(
        Job(kind="attack", store_key="a" * 16, circuit={}, config=cell.config)
    )
    payload["config"]["train"]["grad_shards"] = 2
    del payload["config"]["train"]["epochs"]
    del payload["config"]["h"]
    with pytest.raises(ServeError) as info:
        decode_job(payload)
    for problem in (
        "unknown TrainConfig field 'grad_shards'",
        "missing TrainConfig field 'epochs'",
        "missing MuxLinkConfig field 'h'",
    ):
        assert problem in str(info.value)
    payload["config"] = [1, 2]
    with pytest.raises(ServeError, match="MuxLinkConfig is a list, not a mapping"):
        decode_job(payload)
    with pytest.raises(ServeError, match="missing store_key"):
        decode_job({"config": {}, "circuit": {}})


def _direct(job):
    """The report of *job*'s attack run straight on its netlist."""
    return run_baseline_attack(decode_circuit(job.circuit), job.config)


def test_execute_job_dispatches_on_kind():
    job = _baseline_job()
    via_dispatch = decode_baseline_artifact(execute_job(job))
    direct = _direct(job)
    assert via_dispatch.predicted_key == direct.predicted_key
    assert via_dispatch.scores == direct.scores


def test_socket_bus_carries_baseline_jobs():
    """A baseline job crosses the socket bus to a ``--serve-addr`` worker
    and comes back as the same report a direct execution produces."""
    job = _baseline_job()
    bus = SocketBus(poll=0.05, timeout=60)
    worker = threading.Thread(
        target=run_worker,
        kwargs=dict(
            serve_addr=bus.address, poll=0.05, max_jobs=1, log=lambda *a: None
        ),
        daemon=True,
    )
    worker.start()
    try:
        results = list(bus.run([job]))
    finally:
        bus.close()
        worker.join(timeout=30)
    assert len(results) == 1
    finished, payload = results[0]
    assert finished is job
    served = decode_baseline_artifact(payload)
    direct = _direct(job)
    assert served.attack == "scope"
    assert served.predicted_key == direct.predicted_key
    assert served.scores == direct.scores
    assert bus.stats.completed == 1 and bus.stats.requeues == 0
