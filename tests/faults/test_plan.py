"""FaultPlan/FaultSite: validation, round-trip, fire budgets, env arming."""

import pytest

from repro import faults
from repro.faults import (
    FAULT_PLAN_ENV,
    FAULT_SITES,
    FaultError,
    FaultPlan,
    FaultSite,
    NAMED_PLANS,
    named_fault_plan,
)
from repro.faults import plan as plan_module


def test_unknown_site_is_rejected():
    with pytest.raises(FaultError, match="unknown fault site"):
        FaultSite("store.write_tron")


def test_site_spec_validation():
    with pytest.raises(FaultError):
        FaultSite("socket.connect_refused", after=-1)
    with pytest.raises(FaultError):
        FaultSite("socket.connect_refused", p=1.5)


def test_duplicate_site_is_rejected():
    with pytest.raises(FaultError, match="twice"):
        FaultPlan(
            "dup",
            sites=(
                FaultSite("socket.connect_refused"),
                FaultSite("socket.connect_refused", times=2),
            ),
        )


def test_json_round_trip():
    plan = FaultPlan(
        "mix",
        sites=(
            FaultSite("worker.crash_after_n", times=2, after=1),
            FaultSite("worker.slow_factor", p=0.5, param=3.0),
        ),
        seed=7,
    )
    assert FaultPlan.loads(plan.dumps()) == plan


def test_malformed_json_raises_fault_error():
    with pytest.raises(FaultError, match="malformed"):
        FaultPlan.loads("{not json")
    with pytest.raises(FaultError):
        FaultPlan.loads('{"name": "x", "sites": [{"site": "nope"}]}')


def test_every_named_plan_builds_and_round_trips():
    for name in NAMED_PLANS:
        plan = named_fault_plan(name, seed=3)
        assert plan.name == name
        assert plan.sites, name
        assert FaultPlan.loads(plan.dumps()) == plan
        for spec in plan.sites:
            assert spec.site in FAULT_SITES
    with pytest.raises(FaultError):
        named_fault_plan("does-not-exist")


def test_fire_returns_none_without_a_plan():
    faults.deactivate()
    assert faults.fire("socket.connect_refused") is None
    assert faults.fired_counts() == {}
    assert faults.active_plan() is None


def test_fire_budget_and_after(capsys):
    plan = FaultPlan(
        "budget",
        sites=(FaultSite("socket.connect_refused", times=2, after=1),),
    )
    faults.activate(plan)
    try:
        assert faults.fire("socket.connect_refused") is None  # skipped: after=1
        assert faults.fire("socket.connect_refused") is not None
        assert faults.fire("socket.connect_refused") is not None
        assert faults.fire("socket.connect_refused") is None  # budget spent
        assert faults.fire("store.write_torn") is None  # not armed
        assert faults.fired_counts() == {"socket.connect_refused": 2}
    finally:
        faults.deactivate()
    err = capsys.readouterr().err
    assert err.count("fault[socket.connect_refused]: fired") == 2


def test_unlimited_budget():
    faults.activate(
        FaultPlan("forever", sites=(FaultSite("socket.connect_refused", times=-1),))
    )
    try:
        for _ in range(10):
            assert faults.fire("socket.connect_refused") is not None
    finally:
        faults.deactivate()


def test_probabilistic_fire_pattern_is_reproducible():
    plan = FaultPlan(
        "coin", sites=(FaultSite("socket.connect_refused", times=-1, p=0.5),), seed=5
    )

    def pattern():
        faults.activate(plan)
        try:
            return [
                faults.fire("socket.connect_refused") is not None for _ in range(64)
            ]
        finally:
            faults.deactivate()

    first = pattern()
    assert pattern() == first  # same plan, same seed, same draws
    assert any(first) and not all(first)  # the coin actually flips
    other = FaultPlan(
        "coin", sites=(FaultSite("socket.connect_refused", times=-1, p=0.5),), seed=6
    )
    faults.activate(other)
    try:
        reseeded = [
            faults.fire("socket.connect_refused") is not None for _ in range(64)
        ]
    finally:
        faults.deactivate()
    assert reseeded != first


def test_env_var_arms_the_plan_lazily(monkeypatch):
    plan = FaultPlan("env", sites=(FaultSite("socket.connect_refused"),))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.dumps())
    # Simulate a fresh worker process: the env has not been consulted yet.
    monkeypatch.setattr(plan_module, "_env_checked", False)
    monkeypatch.setattr(plan_module, "_active", None)
    try:
        assert faults.fire("socket.connect_refused") is not None
        assert faults.active_plan() == plan
    finally:
        faults.deactivate()


def test_deactivate_beats_the_env_var(monkeypatch):
    plan = FaultPlan("env", sites=(FaultSite("socket.connect_refused"),))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.dumps())
    faults.deactivate()  # an explicit disarm must stick
    assert faults.fire("socket.connect_refused") is None


def test_site_seed_sequences_differ_by_site():
    plan = FaultPlan("seeds", seed=0)
    a = plan.site_seed_sequence("socket.connect_refused").generate_state(4)
    b = plan.site_seed_sequence("socket.frame_eof").generate_state(4)
    assert list(a) != list(b)
    again = plan.site_seed_sequence("socket.connect_refused").generate_state(4)
    assert list(a) == list(again)
