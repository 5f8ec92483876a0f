"""End-to-end benchmark of the MuxLink reproduction, split by layer.

Three workloads drive the real ``repro`` CLI in child processes:

* ``attack-small``: a closed loop of cold ``repro attack`` processes, one
  at a time;
* ``figures-ci``: one ``repro figures --figures 7 8 --scale ci`` process;
* ``serve-mixed``: a ``repro serve`` process with one worker, fed by one
  client connection — coalesced trainings in rounds, with blocks of
  memory- and store-tier hits between them.

Usage, from the repository root::

    python3 perfbench/run.py --workload attack-small --seed 1 --seconds 15 --trace 0

Inputs are generated and locked before any timing starts; the program
sees only the generated files or requests.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes a separate traced run that
replays the workload in-process through the same public calls and
reports the per-layer split.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
status is non-zero when any output is wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

# Ambient settings must not change what is measured: every REPRO_* knob
# is dropped for this process (before repro is imported) and its children.
for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]

#: End-to-end metrics (name -> unit), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "train_jobs_per_s": "1/s",
    "key_ac": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (name -> unit), reported by every traced run.
PER_LAYER = {
    "import.repro_s": "s",
    "netlist.bench_io_s": "s",
    "benchgen.load_s": "s",
    "locking.lock_s": "s",
    "linkpred.extract_graph_s": "s",
    "linkpred.sample_links_s": "s",
    "linkpred.featurize_s": "s",
    "gnn.assemble_s": "s",
    "gnn.batch_stitch_s": "s",
    "trainer.fit_s": "s",
    "trainer.validate_first_s": "s",
    "trainer.validate_rest_s": "s",
    "nn.graph_conv_fwd_s": "s",
    "nn.sortpool_conv_fwd_s": "s",
    "nn.conv1d_fwd_s": "s",
    "nn.linear_fwd_s": "s",
    "nn.backward_s": "s",
    "nn.optim_step_s": "s",
    "linkpred.score_s": "s",
    "core.postprocess_s": "s",
    "sim.hamming_s": "s",
    "sim.hd_pct": "%",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "linkpred.train_links": "count",
    "linkpred.targets": "count",
    "gnn.examples": "count",
    "nn.steps": "count",
    "experiments.attacks_run": "count",
    "experiments.attacks_cached": "count",
    "serve.memory_hits": "count",
    "serve.store_hits": "count",
    "serve.coalesced": "count",
    "serve.scheduled": "count",
    "serve.requeues": "count",
    "serve.trainings_per_unique_key": "ratio",
}

SETUP_REPEATS = 15  # fresh `import repro.cli` processes per run
SERVE_SETUP_REPEATS = 7  # server start-ups per run
TRACED_ATTACKS = 4  # untraced/traced pairs; D-MUX and symmetric alternate
FILL_ROUNDS = 4  # serve-mixed hit blocks, each followed by a fill round
HITS_PER_SECOND = 30  # serve-mixed hit requests per --seconds
# serve-mixed hits come in periods of one memory-tier hit and three
# store-tier hits.  The tiers' latencies do not overlap, so an even mix
# would put the median between the slowest memory and the fastest store
# hit; this one puts it inside the store tier.
HIT_PERIOD = 4
PROCESS_TIMEOUT_S = 150
SCHEMES = ("dmux", "symmetric")


@dataclass(frozen=True)
class AttackSize:
    """One attacked design and the attack's knobs."""

    benchmark: str
    scale: float
    key_size: int
    h: int
    epochs: int
    #: cold-attack seconds on the reference host; sets how many attacks
    #: one run makes for a given ``--seconds``.
    attack_s: float = 1.0


ATTACK_SIZES = {
    False: AttackSize("c2670", 0.3, 16, 3, 8, 2.7),
    True: AttackSize("c2670", 0.3, 16, 3, 2, 60.0),
}
SERVE_SIZES = {False: AttackSize("c1908", 0.15, 8, 3, 4), True: AttackSize("c1908", 0.15, 8, 3, 2)}
# The first fill round holds the keys the hits use, and its older keys must
# not fit in the memory tier beside the hot key: at least HIT_PERIOD + 1
# keys before the FILL_ROUNDS later rounds of HIT_PERIOD keys each.
SERVE_REQUESTS = {False: 24, True: 21}
# One worker: the fill then keeps one core busy, not both of a 2-core host
# shared with the server and the client, and its per-job times are steady.
SERVE_WORKERS = 1
ATTACK_LOCK_SEED = 1000
SERVE_LOCK_SEED = 2000


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------
class Outcome:
    """Operations attempted and failed (a wrong output counts as failed)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr, flush=True)
        return bool(ok)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python ARGS`` to completion; returns (wall seconds, process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def import_setup_s(cwd: Path, outcome: Outcome) -> float:
    """Wall-clock of one fresh ``python -c 'import repro.cli'`` process."""
    wall, proc = run_child(["-c", "import repro.cli"], cwd)
    outcome.check(proc.returncode == 0, f"import repro.cli: {proc.stderr[-500:]}")
    return wall


def peak_child_rss_mb() -> float:
    """Largest resident set of any finished child (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def seeded_order(seed: int, n: int) -> list[int]:
    return random.Random(seed).sample(range(n), n)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def pair_overhead_s(untraced: list[float], traced: list[float]) -> float:
    """Tracing overhead of a whole traced run, from alternating pairs.

    The median of the per-pair differences, times the number of pairs: a
    single pair mostly measures CPU-speed drift between its two halves.
    """
    return len(traced) * statistics.median(t - u for u, t in zip(untraced, traced))


def host_info() -> dict:
    """The host every number was measured on (ROADMAP standing rule 3)."""
    import numpy
    import scipy

    import repro  # noqa: F401  (pins OpenBLAS at import)
    from repro.bus.threads import limit_blas_threads

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # REPRO_BLAS_THREADS is scrubbed, so repro's import-time pin of
        # one OpenBLAS thread is in effect in every process.
        "blas_threads": 1,
        "blas_pin_applied": limit_blas_threads(1),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


@dataclass
class LockedInput:
    path: Path
    key: str
    seed: int  # the attack's training / sampling seed


def make_inputs(
    size: AttackSize, count: int, lock_seed: int, workdir: Path
) -> list[LockedInput]:
    """Generate the design once and lock ``count`` copies, alternating schemes.

    Lock seeds are fixed (``lock_seed + i``), so every run attacks the same
    designs and the quality metrics compare exactly across runs; the
    workload seed only orders the operations.  This is the benchmark's
    own work and is never traced.
    """
    from repro.benchgen import load_benchmark
    from repro.locking import lock_dmux, lock_symmetric
    from repro.netlist import dump_bench

    lockers = {"dmux": lock_dmux, "symmetric": lock_symmetric}
    base = load_benchmark(size.benchmark, scale=size.scale)
    inputs = []
    for i in range(count):
        scheme = SCHEMES[i % 2]
        locked = lockers[scheme](base, key_size=size.key_size, seed=lock_seed + i)
        path = workdir / f"{size.benchmark}-{scheme}-{i}.bench"
        dump_bench(locked.circuit, path, key=locked.key)
        inputs.append(LockedInput(path, locked.key, seed=i))
    return inputs


def key_accuracy(item: LockedInput, key: str) -> float:
    from repro.core import score_key

    return score_key(key, item.key).accuracy


def end_to_end(**values: float) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(seconds: dict, counts: dict) -> dict:
    """Every per-layer metric; a layer the run never reached reports 0."""
    values = {**counts, **seconds}
    return {
        name: {"value": values.get(name, 0.0 if unit == "s" else 0), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def merge_trace(seconds: dict, counts: dict, trace: dict) -> None:
    for name, value in trace["seconds"].items():
        seconds[name] = seconds.get(name, 0.0) + value
    for name, value in trace["counts"].items():
        counts[name] = counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# attack-small
# ---------------------------------------------------------------------------
_KEY_LINE = re.compile(r"^predicted key: ([01x]+)$", re.M)
_AC_LINE = re.compile(r"^AC=([\d.]+) ", re.M)


def attack_args(item: LockedInput, size: AttackSize) -> list[str]:
    return [
        "attack", str(item.path),
        "--h", str(size.h),
        "--epochs", str(size.epochs),
        "--seed", str(item.seed),
    ]


def checked_key(outcome: Outcome, item: LockedInput, proc) -> str | None:
    """The predicted key, scored against the key stored in the locked file."""
    key = _KEY_LINE.search(proc.stdout)
    printed_ac = _AC_LINE.search(proc.stdout)
    ok = (
        proc.returncode == 0
        and key is not None
        and printed_ac is not None
        and len(key.group(1)) == len(item.key)
        and f"{key_accuracy(item, key.group(1)):.3f}" == printed_ac.group(1)
    )
    outcome.check(
        ok,
        f"attack {item.path.name}: exit {proc.returncode}\n"
        f"{proc.stdout[-500:]}{proc.stderr[-1500:]}",
    )
    return key.group(1) if ok else None


def run_attack(args, workdir: Path, outcome: Outcome) -> dict:
    size = ATTACK_SIZES[args.tiny]
    if args.trace:
        return trace_attack(args, size, workdir, outcome)
    count = max(2, round(args.seconds / size.attack_s))
    inputs = make_inputs(size, count, ATTACK_LOCK_SEED, workdir)
    setups, walls, keys = [], [], {}
    for n, i in enumerate(seeded_order(args.seed, count)):
        # Set-up samples are spread between the attacks, so their median
        # spans the run rather than one moment of it.
        while len(setups) < SETUP_REPEATS * (n + 1) // count:
            setups.append(import_setup_s(workdir, outcome))
        wall, proc = run_child(["-m", "repro.cli", *attack_args(inputs[i], size)], workdir)
        walls.append(wall)
        keys[i] = checked_key(outcome, inputs[i], proc)
    accuracies = [key_accuracy(inputs[i], key) for i, key in keys.items() if key]
    print(f"{args.workload}: {count} cold attacks, seconds " + " ".join(f"{w:.3f}" for w in walls))
    return end_to_end(
        setup_s=statistics.median(setups),
        wall_s=sum(walls),
        op_p50_ms=1000.0 * statistics.median(walls),
        train_jobs_per_s=count / sum(walls),
        key_ac=mean(accuracies),
        peak_rss_mb=peak_child_rss_mb(),
    )


def trace_attack(args, size: AttackSize, workdir: Path, outcome: Outcome) -> dict:
    """Each traced input: a cold CLI attack, then its traced in-process replay."""
    inputs = make_inputs(size, TRACED_ATTACKS, ATTACK_LOCK_SEED, workdir)
    seconds, counts = {}, {}
    cli_walls, replay_walls = [], []
    replay_toplevel = 0.0
    for i in seeded_order(args.seed, TRACED_ATTACKS):
        item = inputs[i]
        wall, proc = run_child(["-m", "repro.cli", *attack_args(item, size)], workdir)
        key = checked_key(outcome, item, proc)
        trace_path = workdir / f"trace-{i}.json"
        rwall, rproc = run_child(
            [str(HERE / "replay.py"), str(trace_path), "--", *attack_args(item, size)],
            workdir,
        )
        replayed = checked_key(outcome, item, rproc)
        outcome.check(
            key is not None and key == replayed,
            f"traced replay of {item.path.name} predicted {replayed}, CLI {key}",
        )
        trace = json.loads(trace_path.read_text())
        merge_trace(seconds, counts, trace)
        cli_walls.append(wall)
        replay_walls.append(rwall)
        replay_toplevel += trace["toplevel_s"]
    seconds["trace.unaccounted_s"] = sum(replay_walls) - replay_toplevel
    seconds["trace.overhead_s"] = pair_overhead_s(cli_walls, replay_walls)
    print(
        f"{args.workload}: traced {TRACED_ATTACKS} attacks, untraced {sum(cli_walls):.3f}s, "
        f"traced {sum(replay_walls):.3f}s"
    )
    return per_layer(seconds, counts)


# ---------------------------------------------------------------------------
# figures-ci
# ---------------------------------------------------------------------------
_FIG7_ROW = re.compile(
    r"^(\S+)\s+(D-MUX|Symmetric-MUX)\s+(\d+)\s+([\d.]+)\s+(\S+)\s+(\S+)\s+(\d+)\s+[\d.]+$",
    re.M,
)
_FIG7_AC = re.compile(r"^  accuracy\s+([\d.]+)$", re.M)
_FIG8_ROW = re.compile(r"^([cb]\d+)\s+(\d+)\s+([\d.]+)\s+(\d+)\s+([\d.]+)$", re.M)
_FIG8_AVG = re.compile(r"^average\s+([\d.]+)$", re.M)
_RUNNER = re.compile(r"^runner: cells=(\d+) .*attacks=(\d+) \(\+(\d+) cached", re.M)


def figures_args(tiny: bool) -> list[str]:
    # The grid seed is pinned: Fig. 7/8 quality swings by tens of percent
    # between grid seeds, and seed 0 is the ROADMAP's reference grid.
    return [
        "figures", "--figures", "7", "8",
        "--scale", "smoke" if tiny else "ci",
        "--jobs", "0", "--seed", "0",
    ]


def parse_figures(text: str, tiny: bool) -> dict | None:
    """The Fig. 7/8 tables, checked for shape and internal consistency."""
    from repro.experiments.common import scale_by_name
    from repro.experiments.fig7 import fig7_cells
    from repro.experiments.fig8 import fig8_cells

    scale = scale_by_name("smoke" if tiny else "ci")
    rows7 = [row[:7] for row in _FIG7_ROW.findall(text)]
    rows8 = _FIG8_ROW.findall(text)
    summary, average, runner = (
        _FIG7_AC.search(text), _FIG8_AVG.search(text), _RUNNER.search(text)
    )
    n7, n8 = len(fig7_cells(scale)), len(fig8_cells(scale))
    if not (summary and average and runner and len(rows7) == n7 and len(rows8) == n8):
        return None
    bits = sum(int(row[2]) for row in rows7)
    pooled = sum(float(row[3]) * int(row[2]) for row in rows7) / bits
    hd_mean = mean([float(row[4]) for row in rows8])
    cells, run, cached = (int(g) for g in runner.groups())
    consistent = (
        abs(pooled - float(summary.group(1))) <= 0.0011
        and abs(hd_mean - float(average.group(1))) <= 0.006
        and cells == n7 + n8
        and run + cached == cells
        and all(0.0 <= float(row[3]) <= 1.0 for row in rows7)
    )
    if not consistent:
        return None
    return {
        "tables": (rows7, rows8),
        "key_ac": float(summary.group(1)),
        "hd_pct": float(average.group(1)),
        "attacks_run": run,
        "attacks_cached": cached,
    }


def run_figures(args, workdir: Path, outcome: Outcome) -> dict:
    if args.trace:
        return trace_figures(args, workdir, outcome)
    # Half the set-up samples before the grid and half after it, so their
    # median spans the run rather than one moment of it.
    setups = [import_setup_s(workdir, outcome) for _ in range(SETUP_REPEATS // 2)]
    wall, proc = run_child(["-m", "repro.cli", *figures_args(args.tiny)], workdir)
    setups += [import_setup_s(workdir, outcome) for _ in range(SETUP_REPEATS - len(setups))]
    outcome.check(proc.returncode == 0, f"figures: exit {proc.returncode}\n{proc.stderr[-1500:]}")
    tables = parse_figures(proc.stdout, args.tiny)
    outcome.check(tables is not None, f"figures tables malformed:\n{proc.stdout[-3000:]}")
    tables = tables or {"key_ac": 0.0, "hd_pct": 0.0, "attacks_run": 0}
    print(f"figures-ci: {wall:.3f}s, AC {tables['key_ac']}, HD {tables['hd_pct']}%")
    return end_to_end(
        setup_s=statistics.median(setups),
        wall_s=wall,
        op_p50_ms=1000.0 * wall,
        # Amortized: the grid trains its unique attacks in one process.
        train_jobs_per_s=tables["attacks_run"] / wall,
        key_ac=tables["key_ac"],
        peak_rss_mb=peak_child_rss_mb(),
    )


def trace_figures(args, workdir: Path, outcome: Outcome) -> dict:
    """The CLI grid untraced, then the same grid replayed in-process, traced."""
    figures = figures_args(args.tiny)
    wall, proc = run_child(["-m", "repro.cli", *figures], workdir)
    untraced = parse_figures(proc.stdout, args.tiny)
    outcome.check(proc.returncode == 0 and untraced is not None, f"figures: {proc.stderr[-1500:]}")
    trace_path = workdir / "trace-figures.json"
    rwall, rproc = run_child([str(HERE / "replay.py"), str(trace_path), "--", *figures], workdir)
    traced = parse_figures(rproc.stdout, args.tiny)
    outcome.check(rproc.returncode == 0 and traced is not None, f"traced figures: {rproc.stderr[-1500:]}")
    outcome.check(
        untraced is not None and traced is not None and traced["tables"] == untraced["tables"],
        "traced figures tables differ from the CLI run",
    )
    trace = json.loads(trace_path.read_text()) if trace_path.exists() else {
        "seconds": {}, "counts": {}, "toplevel_s": 0.0
    }
    seconds, counts = {}, {}
    merge_trace(seconds, counts, trace)
    if traced is not None:
        counts["experiments.attacks_run"] = traced["attacks_run"]
        counts["experiments.attacks_cached"] = traced["attacks_cached"]
        seconds["sim.hd_pct"] = traced["hd_pct"]
    seconds["trace.unaccounted_s"] = rwall - trace["toplevel_s"]
    # One pair only (a second would double a run that is already the
    # longest), so this value is mostly CPU-speed drift, not overhead.
    seconds["trace.overhead_s"] = pair_overhead_s([wall], [rwall])
    print(f"figures-ci: untraced {wall:.3f}s, traced {rwall:.3f}s")
    return per_layer(seconds, counts)


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
class ServeProcess:
    """A ``repro serve`` child (server + worker fleet) in its own session."""

    _READY = re.compile(r"serve: listening on (\S+) ")

    def __init__(self, workdir: Path, store: Path, workers: int, cache_entries: int):
        self.workers = workers
        self.address: str | None = None
        self.connected = 0
        self.ready_s: float | None = None
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--addr", "127.0.0.1:0",
                "--store", str(store),
                "--workers", str(workers),
                "--cache-entries", str(cache_entries),
            ],
            cwd=workdir,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            match = self._READY.search(line)
            if match:
                self.address = match.group(1)
            if "worker connected" in line:
                self.connected += 1
            if self.ready_s is None and self.address and self.connected >= self.workers:
                self.ready_s = time.perf_counter() - self._start
                self._ready.set()
        self._ready.set()

    def wait_ready(self) -> float:
        """Seconds from spawn until it listens and every worker connected."""
        self._ready.wait(PROCESS_TIMEOUT_S)
        if self.ready_s is None:
            raise RuntimeError("repro serve never became ready:\n" + "".join(self.lines[-20:]))
        return self.ready_s

    def stop(self) -> None:
        from repro.client import ServeClient

        if self.address is not None and self.proc.poll() is None:
            try:
                ServeClient(self.address).shutdown()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self._reader.join(timeout=10)

    def kill(self) -> None:
        """Stop the whole session, workers included (error paths)."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self._reader.join(timeout=10)


def _fingerprint(payload: dict):
    """An attack artifact, wall-clock aside, as comparable bytes."""
    import numpy as np

    def canon(value):
        if isinstance(value, dict):
            return tuple(sorted((k, canon(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(canon(v) for v in value)
        if isinstance(value, np.ndarray):
            return (str(value.dtype), value.shape, value.tobytes())
        return value

    return canon({k: v for k, v in payload.items() if k != "runtime_seconds"})


def run_serve(args, workdir: Path, outcome: Outcome) -> dict:
    """A fill round (each request twice, so one coalesces), then hit blocks
    on its keys, each followed by another fill round."""
    from repro.client import ServeClient
    from repro.core import MuxLinkConfig, run_muxlink
    from repro.core.muxlink import rescore_key
    from repro.linkpred import TrainConfig
    from repro.netlist import load_bench
    from repro.store import encode_attack_artifact

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    size = SERVE_SIZES[args.tiny]
    n = SERVE_REQUESTS[args.tiny]
    # Whole hit periods in every block, so each block starts on the hot key.
    block = HIT_PERIOD * FILL_ROUNDS
    hits = max(block, block * round(args.seconds * HITS_PER_SECOND / block))
    inputs = make_inputs(size, n, SERVE_LOCK_SEED, workdir)
    # The program sees the generated files: requests carry the parsed netlist.
    circuits = [load_bench(item.path)[0] for item in inputs]
    configs = [
        MuxLinkConfig(
            h=size.h,
            train=TrainConfig(epochs=size.epochs, learning_rate=1e-3, seed=item.seed),
            seed=item.seed,
        )
        for item in inputs
    ]
    order = seeded_order(args.seed, n)
    # Memory holds one hit period's keys, fewer than the working set: the
    # hottest key stays resident while round-robin older keys always come
    # from the store.
    startups = 1 if args.trace else SERVE_SETUP_REPEATS
    setups = []
    server = None

    def spawn() -> ServeProcess:
        return ServeProcess(
            workdir, workdir / f"store-{len(setups)}", workers=SERVE_WORKERS, cache_entries=HIT_PERIOD
        )

    try:
        # Set-up samples come before the fill and after the hits, so their
        # median spans the run rather than one moment of it.
        for _ in range((startups + 1) // 2):
            if server is not None:
                server.stop()
            server = spawn()
            setups.append(server.wait_ready())
        client = ServeClient(server.address)
        try:
            jobs = [ServeClient.job_for(circuits[i], configs[i]) for i in range(n)]
            submitted, done, served, keys = {}, {}, {}, {}
            train_gaps = []

            def fill(batch: list[int]) -> float:
                """Submit each request twice, wait for all; returns the seconds."""
                for i in batch:
                    submitted[i] = time.perf_counter()
                    first = client.submit_job(jobs[i]).get("status")
                    second = client.submit_job(jobs[i]).get("status")
                    outcome.check(first == "queued", f"fill submit {i}: {first}")
                    outcome.check(second == "coalesced", f"fill resubmit {i}: {second}")
                for i in batch:
                    served[i] = client.result(jobs[i].store_key, timeout=PROCESS_TIMEOUT_S)
                    done[i] = time.perf_counter()
                    keys[i] = rescore_key(served[i], configs[i].threshold)
                    outcome.check(len(keys[i]) == len(inputs[i].key), f"served key {i}: {keys[i]}")
                # One worker trains the jobs in submit order, so the gaps
                # between consecutive results are per-job training times; a
                # batch's first job, which may pay lazy set-up, has none.
                finished = sorted(done[i] for i in batch)
                train_gaps.extend(b - a for a, b in zip(finished, finished[1:]))
                return finished[-1] - min(submitted[i] for i in batch)

            # The fill comes in rounds, one after each hit block, so the
            # training gaps span the run rather than one moment of it.  The
            # hits use the first round's keys; every later round trains one
            # memory tier's worth of new keys, which evicts the hot key once.
            first_round = n - FILL_ROUNDS * HIT_PERIOD
            fill_s = fill(order[:first_round])

            # hits: hottest key (memory tier), then older keys (store tier)
            hot, older = order[first_round - 1], order[: first_round - 1]
            cursor = [0]

            def hit_pass(count: int, split: dict | None) -> tuple[float, list[float]]:
                latencies = []
                start = time.perf_counter()
                for j in range(count):
                    if j % HIT_PERIOD == 0:
                        i, tier = hot, "memory"
                    else:
                        i, tier = older[cursor[0] % len(older)], "store"
                        cursor[0] += 1
                    before = dict(tracer.seconds) if split is not None else None
                    t0 = time.perf_counter()
                    result = client.attack(circuits[i], configs[i])
                    latency = time.perf_counter() - t0
                    latencies.append(latency)
                    outcome.check(
                        rescore_key(result, configs[i].threshold) == keys[i],
                        f"hit on request {i} returned another key",
                    )
                    if split is not None:
                        encode = tracer.seconds.get("client.encode", 0.0) - before.get("client.encode", 0.0)
                        decode = tracer.seconds.get("client.decode", 0.0) - before.get("client.decode", 0.0)
                        split["client.encode_ms"].append(1000.0 * encode)
                        split["client.decode_ms"].append(1000.0 * decode)
                        split["serve.roundtrip_ms"].append(1000.0 * (latency - encode - decode))
                        split[f"serve.hit_{tier}_ms"].append(1000.0 * latency)
                return time.perf_counter() - start, latencies

            # In a traced run untraced and traced blocks alternate, so the
            # overhead is a median over pairs rather than one pair's drift.
            split = {name: [] for name in HIT_SPLIT}
            untraced, traced, latencies, traced_toplevel = [], [], [], 0.0
            for r in range(FILL_ROUNDS):
                wall, block = hit_pass(hits // FILL_ROUNDS, None)
                untraced.append(wall)
                latencies += block
                if tracer is not None:
                    wall, toplevel = trace_hits(tracer, hit_pass, hits // FILL_ROUNDS, split)
                    traced.append(wall)
                    traced_toplevel += toplevel
                start = first_round + r * HIT_PERIOD
                fill_s += fill(order[start : start + HIT_PERIOD])
            stats = client.stats()
        finally:
            client.close()
        server.stop()
        while len(setups) < startups:
            server = spawn()
            setups.append(server.wait_ready())
            server.stop()
    except BaseException:
        if server is not None:
            server.kill()
        raise

    outcome.check(
        stats["scheduled"] == n and stats["failed"] == 0 and stats["coalesced"] == n,
        f"serve counters off: {stats}",
    )
    all_hits = hits * (2 if tracer is not None else 1)
    memory_hits = all_hits // HIT_PERIOD - (FILL_ROUNDS - 1)
    store_hits = all_hits - memory_hits
    if (stats["memory_hits"], stats["store_hits"]) != (memory_hits, store_hits):
        print(
            f"note: hit tiers {stats['memory_hits']}+{stats['store_hits']}, "
            f"expected {memory_hits}+{store_hits}"
        )

    # One served artifact, bit for bit against an in-process attack.
    # The reference is the training a worker runs for this request, so in
    # a traced run it gives the serve path's linkpred/gnn/nn/trainer split.
    ref = order[0]
    if tracer is not None:
        from spans import install

        install(tracer)
    toplevel = tracer.toplevel_s if tracer is not None else 0.0
    start = time.perf_counter()
    try:
        reference = run_muxlink(circuits[ref], configs[ref])
    finally:
        if tracer is not None:
            tracer.uninstall()
    reference_s = time.perf_counter() - start
    outcome.check(
        _fingerprint(encode_attack_artifact(reference))
        == _fingerprint(encode_attack_artifact(served[ref])),
        f"served artifact {ref} differs from an in-process run_muxlink",
    )
    fill_p50 = statistics.median(done[i] - submitted[i] for i in range(n))
    print(f"serve-mixed: fill {n} jobs in {fill_s:.3f}s (latency p50 {fill_p50:.3f}s), stats {stats}")
    print("serve-mixed: training gaps, seconds " + " ".join(f"{g:.3f}" for g in train_gaps))
    if tracer is None:
        hit_p50, hit_p95 = (1000.0 * q for q in statistics.quantiles(latencies, n=20)[9::9])
        print(f"serve-mixed: {hits} hits in {sum(untraced):.3f}s (p50 {hit_p50:.3f}ms, p95 {hit_p95:.3f}ms)")
        return end_to_end(
            setup_s=statistics.median(setups),
            wall_s=fill_s + sum(untraced),
            op_p50_ms=1000.0 * statistics.median(latencies),
            # Other tenants of the host only ever slow a job down, so the
            # fastest tenth of the gaps tracks the program, and the median
            # the host: over ten seeds their spreads were 0.07 and 0.18.
            train_jobs_per_s=1.0 / statistics.quantiles(train_gaps, n=10)[0],
            key_ac=mean([key_accuracy(inputs[i], keys[i]) for i in range(n)]),
            peak_rss_mb=peak_child_rss_mb(),
        )

    # The client-side split of a hit is serve-only, so it is printed rather
    # than reported: the per-layer metrics hold for every workload.
    for name, values in split.items():
        quartiles = statistics.quantiles(values, n=4)
        print(f"serve-mixed: {name} p25/p50/p75 " + " ".join(f"{q:.4f}" for q in quartiles))
    import_s = [
        float(run_child(["-c", _IMPORT_PROBE], workdir)[1].stdout) for _ in range(SETUP_REPEATS)
    ]
    seconds, counts = dict(tracer.seconds), dict(tracer.counts)
    seconds["import.repro_s"] = statistics.median(import_s)
    seconds["trace.unaccounted_s"] = (
        sum(traced) + reference_s - traced_toplevel - (tracer.toplevel_s - toplevel)
    )
    seconds["trace.overhead_s"] = pair_overhead_s(untraced, traced)
    for name in ("memory_hits", "store_hits", "coalesced", "scheduled", "requeues"):
        counts[f"serve.{name}"] = stats[name]
    counts["serve.trainings_per_unique_key"] = stats["scheduled"] / n
    return per_layer(seconds, counts)


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)

#: The client-side split of a served hit, printed by a traced serve-mixed run.
HIT_SPLIT = (
    "client.encode_ms", "client.decode_ms", "serve.roundtrip_ms",
    "serve.hit_memory_ms", "serve.hit_store_ms",
)


def trace_hits(tracer, hit_pass, count: int, split: dict) -> tuple[float, float]:
    """A block of hits with the client's encode and decode timed.

    Returns the block's wall-clock and the top-level traced time within it.
    """
    import repro.client as client_mod
    from repro.client import ServeClient

    decode = client_mod._DECODERS["attacks"]
    tracer.patch(ServeClient, "job_for", "client.encode")
    client_mod._DECODERS["attacks"] = tracer.timed("client.decode", decode)
    toplevel = tracer.toplevel_s
    try:
        wall, _ = hit_pass(count, split)
    finally:
        client_mod._DECODERS["attacks"] = decode
        tracer.uninstall()
    return wall, tracer.toplevel_s - toplevel


# ---------------------------------------------------------------------------
WORKLOADS = {
    "attack-small": run_attack,
    "figures-ci": run_figures,
    "serve-mixed": run_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smallest inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps({"host": host_info()}), flush=True)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    outcome = Outcome()
    try:
        metrics = WORKLOADS[args.workload](args, workdir, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
