"""``--jobs N`` forks a serve fleet: bus choice, laziness, kills, orphans.

``ExperimentRunner`` runs serially for ``jobs`` 0/1 and otherwise on a
:class:`~repro.experiments.socketbus.SocketBus` whose workers are forked
from the coordinator (:class:`~repro.serve.Fleet`, which ``repro serve
--workers N`` uses too).  A fleet is forked on the first wave with jobs, is reaped
by ``close()``, survives the SIGKILL of a member through the server's
requeue, and never outlives its coordinator: a member whose parent is
gone exits instead of reconnecting forever.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import ServeError
from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    fig7_cells,
    record_fingerprint,
)
from repro.experiments.socketbus import SocketBus

_SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parents[1])
_ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": _SRC_ROOT, "PYTHONHASHSEED": "0"}


def _alive(pid: int) -> bool:
    """Whether *pid* still runs; a zombie nobody reaps counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return state not in ("Z", "X")


def _gone_within(pids, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if not any(_alive(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


def _children(pid: int) -> list[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


def test_runner_picks_serial_or_socket_bus(monkeypatch):
    monkeypatch.delenv("REPRO_BUS_ADDR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    for jobs in (0, 1):
        assert ExperimentRunner(jobs=jobs).bus is None
    with ExperimentRunner(jobs=2) as fanned:
        assert isinstance(fanned.bus, SocketBus)
        assert fanned.bus._fleet.size == 2
        assert not fanned.bus._fleet.members  # forked lazily, on a run
    # An explicit address selects the bus even at --jobs 0: outside
    # workers join it, and nothing is forked.
    with ExperimentRunner(jobs=0, bus_addr="127.0.0.1:0") as outside:
        assert outside.bus._fleet.size == 0
    monkeypatch.setenv("REPRO_BUS_ADDR", "127.0.0.1:0")
    with ExperimentRunner(jobs=0) as from_env:
        assert isinstance(from_env.bus, SocketBus)
    ready = SocketBus()
    with ExperimentRunner(jobs=2, bus=ready) as passed:
        assert passed.bus is ready


def test_jobs_without_fork_is_a_typed_error(monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    with pytest.raises(ServeError) as excinfo:
        ExperimentRunner(jobs=2)
    assert "--jobs 0" in str(excinfo.value)
    assert "repro worker --serve-addr" in str(excinfo.value)


def test_fleet_forks_lazily_and_close_leaves_no_child(tmp_path):
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    with ExperimentRunner(jobs=2, store=tmp_path) as cold:
        reference = [record_fingerprint(r) for r in cold.run(cells)]
        pids = [member.pid for member in cold.bus._fleet.members]
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
    assert not multiprocessing.active_children()
    assert not any(_alive(pid) for pid in pids)

    # A fully cached grid never reaches the bus, so nothing is forked.
    with ExperimentRunner(jobs=2, store=tmp_path) as warm:
        records = warm.run(cells)
        assert warm.stats.attacks_computed == 0
        assert not warm.bus._fleet.members
        assert not multiprocessing.active_children()
    assert [record_fingerprint(r) for r in records] == reference


def test_failing_job_is_retried_then_raises_with_the_traceback(monkeypatch):
    """Under ``--jobs N`` a failing job gets ``max_attempts`` tries and
    then a :class:`ServeError` carrying the member's traceback."""
    import repro.jobs

    def broken(job):
        raise RuntimeError("injected job failure")

    # Members are forked after this patch, so they inherit it.
    monkeypatch.setattr(repro.jobs, "execute_job", broken)
    with ExperimentRunner(jobs=2) as runner:
        with pytest.raises(ServeError) as excinfo:
            runner.run(fig7_cells(SMOKE_SCALE, seed=0)[:1])
        assert runner.bus._server.stats.requeues == 2  # 3 attempts in all
    assert "failed 3 time(s)" in str(excinfo.value)
    assert "RuntimeError: injected job failure" in str(excinfo.value)
    assert not multiprocessing.active_children()


def test_sigkilled_fleet_member_mid_grid_keeps_bit_parity(monkeypatch):
    cells = [
        cell for seed in range(4) for cell in fig7_cells(SMOKE_SCALE, seed)
    ]
    serial = [record_fingerprint(r) for r in ExperimentRunner(jobs=0).run(cells)]
    killed = []
    with ExperimentRunner(jobs=2) as runner:
        finish = runner._finish_job
        server = runner.bus._server

        def finish_then_kill(job, payload):
            finish(job, payload)
            # Kill once both members hold work, so the victim dies with
            # a job in flight and the server has something to requeue.
            held = list(server.workers.values())
            if (
                not killed
                and len(held) == 2
                and all(key is not None for key in held)
            ):
                victim = runner.bus._fleet.members[0].pid
                os.kill(victim, signal.SIGKILL)
                killed.append(victim)

        monkeypatch.setattr(runner, "_finish_job", finish_then_kill)
        records = runner.run(cells)
        assert killed, "no completion found both members busy"
        assert runner.bus.stats.requeues >= 1
    assert [record_fingerprint(r) for r in records] == serial
    assert not multiprocessing.active_children()


def _spawn(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", *argv],
        env=_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )


def _kill_session(proc: subprocess.Popen) -> None:
    try:  # whatever a failed assertion left behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def test_sigkilled_serve_leaves_no_orphan_worker(tmp_path):
    proc = _spawn(
        ["serve", "--addr", "127.0.0.1:0", "--store", str(tmp_path),
         "--workers", "1", "--poll", "0.1"]
    )
    try:
        worker = None
        for line in proc.stdout:
            if line.startswith("worker[") and ": serve " in line:
                worker = int(line[len("worker["):line.index("]")])
                break
        assert worker is not None and _alive(worker)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert _gone_within([worker], 5.0), f"worker {worker} outlived serve"
    finally:
        _kill_session(proc)


@pytest.mark.parametrize(
    "how", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"]
)
def test_killed_figures_coordinator_leaves_no_fleet(how, tmp_path):
    if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
        pytest.skip("needs /proc/PID/task/PID/children")
    proc = _spawn(
        ["figures", "--figures", "7", "8", "9", "10", "--scale", "smoke",
         "--jobs", "2", "--store", str(tmp_path / "store")]
    )
    try:
        deadline = time.monotonic() + 120
        fleet: list[int] = []
        while len(fleet) < 2 and time.monotonic() < deadline:
            assert proc.poll() is None, "figures ended before it forked"
            fleet = _children(proc.pid)
            time.sleep(0.02)
        assert len(fleet) == 2, fleet
        proc.send_signal(how)
        proc.wait(timeout=30)
        assert _gone_within(fleet, 5.0), f"fleet {fleet} outlived figures"
    finally:
        _kill_session(proc)
