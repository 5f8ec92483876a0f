"""Baseline jobs are first-class bus citizens alongside MuxLink jobs."""

import threading

import pytest

from repro.attacks import BaselineConfig
from repro.benchgen import random_netlist
from repro.bus import (
    JOB_ARTIFACT_KINDS,
    BusError,
    SocketBus,
    decode_job,
    encode_job,
    job_artifact_kind,
    run_worker,
)
from repro.experiments.runner import (
    BaselineJob,
    execute_baseline_job,
    execute_job,
)
from repro.locking import lock_dmux
from repro.store import (
    decode_baseline_artifact,
    encode_circuit,
    encode_lock_artifact,
)


def _baseline_job(attack="scope", train=()):
    locked = lock_dmux(
        random_netlist("base", 8, 4, 80, seed=0), key_size=6, seed=1
    )
    return BaselineJob(
        store_key="k" * 64,
        circuit=encode_circuit(locked.circuit),
        config=BaselineConfig(attack=attack, undecided="coin", seed=5),
        train=tuple(encode_lock_artifact(t) for t in train),
    )


def test_kind_registry():
    assert JOB_ARTIFACT_KINDS == {"attack": "attacks", "baseline": "baselines"}
    assert job_artifact_kind("baseline") == "baselines"
    with pytest.raises(BusError, match="unknown job kind"):
        job_artifact_kind("mystery")


def test_baseline_job_wire_round_trip():
    job = _baseline_job()
    payload = encode_job(job)
    assert payload["kind"] == "baseline"
    decoded = decode_job(payload)
    assert isinstance(decoded, BaselineJob)
    assert decoded.kind == "baseline"
    assert decoded.artifact_kind == "baselines"
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
    with pytest.raises(BusError, match="unknown job kind"):
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
    with pytest.raises(BusError, match=match):
        decode_job(payload)


def test_decode_rejects_undecodable_attack_config():
    from repro.experiments import SMOKE_SCALE, make_cell
    from repro.experiments.runner import AttackJob

    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
    payload = encode_job(
        AttackJob(store_key="a" * 16, circuit={}, config=cell.config)
    )
    payload["config"]["train"]["grad_shards"] = 2
    del payload["config"]["train"]["epochs"]
    del payload["config"]["h"]
    with pytest.raises(BusError) as info:
        decode_job(payload)
    for problem in (
        "unknown TrainConfig field 'grad_shards'",
        "missing TrainConfig field 'epochs'",
        "missing MuxLinkConfig field 'h'",
    ):
        assert problem in str(info.value)
    payload["config"] = [1, 2]
    with pytest.raises(BusError, match="MuxLinkConfig is a list, not a mapping"):
        decode_job(payload)
    with pytest.raises(BusError, match="missing store_key"):
        decode_job({"config": {}, "circuit": {}})


def test_execute_job_dispatches_on_kind():
    job = _baseline_job()
    via_dispatch = decode_baseline_artifact(execute_job(job))
    direct = decode_baseline_artifact(execute_baseline_job(job))
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
    direct = decode_baseline_artifact(execute_baseline_job(job))
    assert served.attack == "scope"
    assert served.predicted_key == direct.predicted_key
    assert served.scores == direct.scores
    assert bus.stats.completed == 1 and bus.stats.requeues == 0
