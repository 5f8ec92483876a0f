"""SpoolDir lease protocol: enqueue / lease / heartbeat / reap / quarantine."""

import os
import time

import pytest

from repro.bus import (
    BusError,
    LocalBus,
    SpoolBus,
    SpoolDir,
    decode_job,
    encode_job,
    resolve_bus,
)
from repro.experiments import SMOKE_SCALE, make_cell
from repro.experiments.runner import AttackJob


def _job(key: str = "a" * 16) -> dict:
    cell = make_cell(SMOKE_SCALE, "c1355", 0.1, "D-MUX", 6, seed=0)
    return encode_job(
        AttackJob(store_key=key, circuit={"fake": 1}, config=cell.config)
    )


def test_enqueue_lease_complete_lifecycle(tmp_path):
    spool = SpoolDir(tmp_path)
    assert spool.lease() is None  # empty spool
    assert spool.enqueue("k1", _job("k1"))
    assert spool.pending_keys() == ["k1"]
    assert not spool.enqueue("k1", _job("k1"))  # already pending

    key, payload = spool.lease()
    assert key == "k1"
    assert payload["attempt"] == 0
    assert spool.pending_keys() == [] and spool.leased_keys() == ["k1"]
    assert not spool.enqueue("k1", _job("k1"))  # already leased
    assert spool.lease() is None  # nothing else to claim

    assert spool.heartbeat("k1")
    spool.complete("k1")
    assert spool.leased_keys() == []
    assert not spool.heartbeat("k1")  # lease gone


def test_job_payload_roundtrip(tmp_path):
    spool = SpoolDir(tmp_path)
    original = _job("k1")
    spool.enqueue("k1", original)
    _, payload = spool.lease()
    job = decode_job(payload["job"])
    assert job.store_key == "k1"
    assert job.circuit == {"fake": 1}
    assert job.config == decode_job(original).config


def test_reap_stale_requeues_with_bumped_attempt(tmp_path):
    spool = SpoolDir(tmp_path, stale_after=0.2, max_attempts=3)
    spool.enqueue("k1", _job("k1"))
    spool.lease()
    assert spool.reap_stale() == 0  # heartbeat still fresh
    time.sleep(0.3)
    assert spool.reap_stale() == 1
    assert spool.pending_keys() == ["k1"] and spool.leased_keys() == []
    _, payload = spool.lease()
    assert payload["attempt"] == 1
    assert "lease expired" in str(payload["last_error"])


def test_fail_requeues_then_quarantines_with_traceback(tmp_path):
    spool = SpoolDir(tmp_path, max_attempts=2)
    spool.enqueue("k1", _job("k1"))
    spool.lease()
    assert not spool.fail("k1", "boom one")  # attempt 1 of 2: requeued
    spool.lease()
    assert spool.fail("k1", "boom two")  # attempt 2 of 2: quarantined
    assert spool.pending_keys() == [] and spool.leased_keys() == []
    assert spool.quarantined_keys() == ["k1"]
    (poisoned,) = spool.quarantined()
    assert poisoned.key == "k1"
    assert poisoned.attempts == 2
    assert poisoned.traceback == "boom two"
    # A quarantined job refuses re-enqueue until an operator clears it.
    assert not spool.enqueue("k1", _job("k1"))


def test_lease_stamps_fresh_heartbeat_before_decoding(tmp_path, monkeypatch):
    """``os.rename`` preserves the pending-file mtime, so a job that sat
    queued longer than ``stale_after`` (the normal regime when jobs
    outnumber workers) must be re-stamped *before* decoding — otherwise a
    concurrent ``reap_stale`` can steal the fresh lease mid-decode."""
    from repro.bus.spool import codec

    spool = SpoolDir(tmp_path, stale_after=5.0)
    spool.enqueue("k1", _job("k1"))
    old = time.time() - 100.0
    os.utime(spool.pending_dir / "k1.npz", (old, old))

    ages = {}
    real_load = codec.load

    def spying_load(path, **kwargs):
        ages["at_load"] = time.time() - os.stat(path).st_mtime
        return real_load(path, **kwargs)

    monkeypatch.setattr("repro.bus.spool.codec.load", spying_load)
    leased = spool.lease()
    assert leased is not None and leased[0] == "k1"
    assert ages["at_load"] < spool.stale_after
    assert spool.reap_stale() == 0  # the held lease is not reapable


def test_lease_lost_to_reaper_mid_decode_is_not_quarantined(
    tmp_path, monkeypatch
):
    """A reaper claiming the file between our rename and our load is a
    lost race — the reaper owns the retry; quarantining a ``job=None``
    entry here would abort the whole grid over a healthy job."""
    spool = SpoolDir(tmp_path, stale_after=5.0)
    spool.enqueue("k1", _job("k1"))

    def reaped_load(path, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr("repro.bus.spool.codec.load", reaped_load)
    assert spool.lease() is None
    assert spool.quarantined_keys() == []


def test_unreadable_job_file_is_quarantined_on_lease(tmp_path):
    spool = SpoolDir(tmp_path)
    spool.enqueue("good", _job("good"))
    spool.pending_dir.joinpath("bad.npz").write_bytes(b"not a job")
    leased = spool.lease()
    assert leased is not None and leased[0] == "good"
    assert spool.quarantined_keys() == ["bad"]


def test_referenced_keys_cover_pending_and_leased(tmp_path):
    spool = SpoolDir(tmp_path)
    spool.enqueue("k1", _job("k1"))
    spool.enqueue("k2", _job("k2"))
    spool.lease()
    assert spool.referenced_keys() == {"k1", "k2"}
    spool.complete("k1")
    assert spool.referenced_keys() == {"k2"}


def test_malformed_keys_rejected(tmp_path):
    spool = SpoolDir(tmp_path)
    for bad in ("", "../escape", "a.b", "a/b"):
        with pytest.raises(ValueError):
            spool.enqueue(bad, _job())


def test_resolve_bus_names_and_errors(tmp_path, monkeypatch):
    assert isinstance(resolve_bus(None, jobs=0), LocalBus)
    assert isinstance(resolve_bus("local", jobs=4), LocalBus)
    with pytest.raises(BusError, match="directory"):
        resolve_bus("spool")
    with pytest.raises(BusError, match="store"):
        resolve_bus("spool", bus_dir=tmp_path)
    with pytest.raises(BusError, match="unknown job bus"):
        resolve_bus("carrier-pigeon")
    monkeypatch.setenv("REPRO_BUS", "spool")
    monkeypatch.setenv("REPRO_BUS_DIR", str(tmp_path / "spool"))
    from repro.store import ArtifactStore

    bus = resolve_bus(None, store=ArtifactStore(tmp_path / "store"))
    assert isinstance(bus, SpoolBus)
    passthrough = LocalBus()
    assert resolve_bus(passthrough) is passthrough


# ---------------------------------------------------------------------------
# Reap races (PR 9): claim-then-recheck semantics and orphaned claims
# ---------------------------------------------------------------------------
def _age(path, seconds: float = 100.0) -> None:
    old = time.time() - seconds
    os.utime(path, (old, old))


def test_concurrent_reapers_bump_the_attempt_exactly_once(tmp_path):
    """Two peers reaping one expired lease must not double-charge the
    job's attempt budget — the claim rename picks exactly one winner."""
    a = SpoolDir(tmp_path, stale_after=0.5, max_attempts=10)
    b = SpoolDir(tmp_path, stale_after=0.5, max_attempts=10)
    a.enqueue("k1", _job("k1"))
    a.lease()
    _age(a.leased_dir / "k1.npz")
    assert a.reap_stale() + b.reap_stale() == 1
    _, payload = a.lease()
    assert payload["attempt"] == 1


def test_reap_race_hands_a_fresh_lease_back_untouched(tmp_path, monkeypatch):
    """The double-bump race: reaper A stats a stale lease; before A's
    claim lands, peer B reaps it and a worker re-leases the requeued
    copy at the same path.  A's claim then *wins against the fresh
    lease* — winning the rename does not prove staleness, so A must
    re-check mtime on the claimed file and hand it straight back."""
    reaper = SpoolDir(tmp_path, stale_after=5.0, max_attempts=10)
    peer = SpoolDir(tmp_path, stale_after=5.0, max_attempts=10)
    reaper.enqueue("k1", _job("k1"))
    reaper.lease()
    _age(reaper.leased_dir / "k1.npz")

    real_claim = SpoolDir._claim
    raced = {}

    def racing_claim(self, path):
        if not raced:
            raced["done"] = True
            # The interleaving under test, injected between our
            # staleness check and our claim rename:
            assert peer.reap_stale() == 1
            released = peer.lease()
            assert released is not None and released[0] == "k1"
        return real_claim(self, path)

    monkeypatch.setattr(SpoolDir, "_claim", racing_claim)
    assert reaper.reap_stale() == 0  # fresh lease returned untouched
    monkeypatch.undo()

    assert reaper.leased_keys() == ["k1"]
    assert reaper.pending_keys() == []
    assert reaper.heartbeat("k1")  # the worker still owns it
    from repro.bus.spool import codec
    from repro.bus.protocol import BUS_JOB_KIND

    payload = codec.load(reaper.leased_dir / "k1.npz", kind=BUS_JOB_KIND)
    assert payload["attempt"] == 1  # bumped once (peer), not twice


def test_orphaned_claim_is_adopted_after_stale_after(tmp_path):
    """A reaper that crashes between claiming and requeueing must not
    strand the job: an idle ``.claim`` older than stale_after is
    requeued by any peer."""
    spool = SpoolDir(tmp_path, stale_after=0.5, max_attempts=10)
    spool.enqueue("k1", _job("k1"))
    spool.lease()
    claim = spool.leased_dir / "k1.deadbeef.claim"
    os.rename(spool.leased_dir / "k1.npz", claim)
    assert spool.reap_stale() == 0  # fresh claim: its reaper is alive
    assert claim.exists()
    _age(claim)
    assert spool.reap_stale() == 1
    assert spool.pending_keys() == ["k1"]
    _, payload = spool.lease()
    assert payload["attempt"] == 1
    assert "orphaned" in str(payload["last_error"])


def test_injected_lease_race_site_skips_but_never_loses_jobs(tmp_path):
    from repro import faults
    from repro.faults import FaultPlan, FaultSite

    spool = SpoolDir(tmp_path)
    spool.enqueue("k1", _job("k1"))
    faults.activate(
        FaultPlan("race", sites=(FaultSite("spool.lease_race", times=2),))
    )
    try:
        assert spool.lease() is None  # lost the injected race
        assert spool.lease() is None
        leased = spool.lease()  # budget spent: the job is still there
        assert leased is not None and leased[0] == "k1"
    finally:
        faults.deactivate()
