"""Bit-parity across bus backends: local == spool == socket.

The acceptance contract of the job bus: ``repro figures --figures
7 8 9 10 --scale smoke`` produces byte-identical figure tables whether
the attack jobs execute serially in the coordinator (``--bus local``),
in two independent ``repro worker`` processes draining a spool directory
(``--bus spool``), or in two ``--serve-addr`` workers connected over
TCP to the coordinator's in-process serve endpoint (``--bus socket``).  Wall-clock columns are masked — a distributed run
measures its own runtimes — but every computed value must match.
"""

import pathlib
import re
import socket as socketlib
import subprocess
import sys

import repro
from repro.experiments import (
    SMOKE_SCALE,
    ExperimentRunner,
    fig7_cells,
    record_fingerprint,
)

_SRC_ROOT = str(pathlib.Path(repro.__file__).resolve().parents[1])
_FIGURES = ["figures", "--figures", "7", "8", "9", "10", "--scale", "smoke"]
_ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": _SRC_ROOT, "PYTHONHASHSEED": "0"}


def _figures_cli(extra_args: list[str]) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *_FIGURES, *extra_args],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _start_worker(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--poll",
            "0.1",
            "--idle-timeout",
            "300",
            *args,
        ],
        env=_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _tables(stdout: str) -> str:
    """Figure tables only, wall-clock columns masked."""
    lines = [
        line
        for line in stdout.splitlines()
        if line.strip()
        and not line.startswith(
            ("runner:", "store:", "store=", "scale=", "bus=", "bus[")
        )
    ]
    return "\n".join(re.sub(r"\d+\.\d$", "<sec>", line) for line in lines)


def _free_port() -> int:
    with socketlib.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_figure_tables_bit_identical_across_buses(tmp_path):
    local = _figures_cli(["--store", str(tmp_path / "store-local")])
    reference = _tables(local)
    assert "AC=" in local or reference  # sanity: tables materialized

    # --- spool: two real worker processes draining one directory -------
    spool_dir = str(tmp_path / "spool")
    spool_store = str(tmp_path / "store-spool")
    workers = [
        _start_worker(["--bus-dir", spool_dir, "--store", spool_store])
        for _ in range(2)
    ]
    try:
        spool = _figures_cli(
            [
                "--store",
                spool_store,
                "--bus",
                "spool",
                "--bus-dir",
                spool_dir,
            ]
        )
    finally:
        for worker in workers:
            worker.terminate()
            worker.wait(timeout=30)
    assert _tables(spool) == reference
    assert "bus[spool]" in spool

    # --- socket: two workers over TCP, no shared spool ------------------
    addr = f"127.0.0.1:{_free_port()}"
    workers = [_start_worker(["--serve-addr", addr]) for _ in range(2)]
    try:
        sock = _figures_cli(
            [
                "--store",
                str(tmp_path / "store-socket"),
                "--bus",
                "socket",
                "--bus-addr",
                addr,
            ]
        )
    finally:
        for worker in workers:
            worker.terminate()
            worker.wait(timeout=30)
    assert _tables(sock) == reference
    assert "bus[socket]" in sock


def test_warm_store_yields_zero_releases(tmp_path):
    """A warm spool-bus coordinator never enqueues: the runner's store
    dedupe runs *before* the bus, so nothing is leased, no workers are
    needed, and the figures come straight from the store."""
    cells = fig7_cells(SMOKE_SCALE, seed=0)
    store = tmp_path / "store"
    cold = ExperimentRunner(jobs=0, store=store)
    reference = [record_fingerprint(r) for r in cold.run(cells)]
    cold.close()

    warm = ExperimentRunner(
        store=store, bus="spool", bus_dir=tmp_path / "spool"
    )
    records = warm.run(cells)
    assert [record_fingerprint(r) for r in records] == reference
    assert warm.stats.attacks_computed == 0
    assert warm.bus.stats.submitted == 0  # zero leases ever created
    assert warm.bus.stats.requeues == 0
    assert warm.bus.spool.pending_keys() == []
    assert warm.bus.spool.leased_keys() == []
    warm.close()


def _leaderboard_cli(extra_args: list[str]) -> str:
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "leaderboard",
            "--scale",
            "smoke",
            "--ensemble",
            *extra_args,
        ],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_leaderboard_bit_identical_across_spool_bus(tmp_path):
    """PR 8 acceptance: a cold `repro leaderboard --store D` over the
    spool bus with two workers is bit-identical to a serial in-memory
    run, and a warm rerun in a fresh process performs zero lock, attack
    or baseline jobs — the mixed MuxLink+baseline grid fans out and
    adopts exactly like a MuxLink-only one."""
    serial = _leaderboard_cli([])
    reference = _tables(serial)
    assert "MuxLink+SCOPE" in serial  # the ensemble rows materialized

    spool_dir = str(tmp_path / "spool")
    store = str(tmp_path / "store")
    workers = [
        _start_worker(["--bus-dir", spool_dir, "--store", store])
        for _ in range(2)
    ]
    try:
        spool = _leaderboard_cli(
            ["--store", store, "--bus", "spool", "--bus-dir", spool_dir]
        )
    finally:
        for worker in workers:
            worker.terminate()
            worker.wait(timeout=30)
    assert _tables(spool) == reference
    assert "bus[spool]" in spool

    warm = _leaderboard_cli(["--store", store])
    assert _tables(warm) == reference
    assert "locks=0" in warm
    assert "attacks=0" in warm
    assert "baselines=0" in warm
