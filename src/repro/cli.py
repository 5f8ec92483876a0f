"""Command-line interface: generate, lock, attack, and evaluate netlists.

Usage examples::

    python -m repro.cli generate c1355 --scale 0.3 -o c1355.bench
    python -m repro.cli lock c1355.bench --scheme dmux --key-size 16 -o locked.bench
    python -m repro.cli attack locked.bench --epochs 20 --h 3
    python -m repro.cli figures --jobs 4                  # 4 forked workers
    python -m repro.cli figures --figures 7 9 --scale smoke
    python -m repro.cli saam locked.bench
    python -m repro.cli sweep locked.bench --train other1.bench --train other2.bench
    python -m repro.cli leaderboard --scale smoke --store /tmp/store
    python -m repro.cli hd original.bench recovered.bench

``attack`` runs subgraph extraction through the batched CSR pipeline
(:mod:`repro.linkpred.subgraph`), in-process.  Training runs on the
cached-batch float32 engine (:class:`repro.linkpred.Trainer`);
``--patience`` enables early stopping,
``--checkpoint``/``--resume`` persist and restore the full training state,
and ``--dtype float64`` (or ``REPRO_DTYPE``) restores the float64 runtime.

``figures`` regenerates the paper's Fig. 7-10 through one shared
:class:`~repro.experiments.ExperimentRunner`: ``--jobs N`` (or
``REPRO_JOBS``; ``auto`` = all cores) forks N workers from the warm
process and fans independent attack cells out to them over an
in-process ``repro serve`` endpoint, and locked netlists / trained
attacks are cached across figures — results are bit-identical for any
job count.  With ``--store DIR`` (or ``REPRO_STORE``) those caches write
through a persistent content-addressed artifact store, so a rerun in a
fresh process performs zero lock and zero train jobs; ``attack --store``
keys single attacks into the same pool, and ``cache ls / stats / gc /
verify`` administers it.

``--bus-addr`` binds that endpoint where ``repro worker --serve-addr``
processes on any host can join, even at ``--jobs 0``.  Results are
bit-identical to a serial run::

    python -m repro.cli worker --serve-addr 127.0.0.1:7341 &
    python -m repro.cli worker --serve-addr 127.0.0.1:7341 &
    python -m repro.cli figures --scale smoke --bus-addr 127.0.0.1:7341 \
        --store /tmp/store

``repro serve`` is the persistent attack-as-a-service shape: a
long-running server owning the artifact store, a warm result cache and
a fleet of persistent workers; ``repro attack --serve HOST:PORT`` (or
:mod:`repro.client`) submits content-keyed requests to it and reads
each artifact back by key.

Every ``REPRO_*`` environment variable the package reads is declared
once in :mod:`repro.settings`; a flag beats its variable, and ``repro
config`` prints each variable with the value in effect and where it
came from.  A malformed value, like any other :class:`ReproError`,
ends the command with ``error: …`` and exit status 2.
"""

from __future__ import annotations

import argparse
import sys

from repro.benchgen import benchmark_names, load_benchmark
from repro.core import MuxLinkConfig, rescore_key, score_key
from repro.errors import BenchFormatError, ReproError, ServeError
from repro.linkpred import TrainConfig
from repro.locking import (
    apply_key,
    key_inputs_of,
    lock_dmux,
    lock_naive_mux,
    lock_symmetric,
    lock_xor,
)
from repro.netlist import Circuit, dump_bench, load_bench
from repro.settings import SETTINGS, setting, setting_source
from repro.sim import hamming_distance

_SCHEMES = {
    "dmux": lock_dmux,
    "symmetric": lock_symmetric,
    "naive-mux": lock_naive_mux,
    "xor": lock_xor,
}


def _check_key(path, circuit: Circuit, key: str | None, what: str) -> None:
    """Refuse a key that does not fit *circuit*'s key inputs bit for bit
    (``x`` bits allowed): a misfit one must fail as a typed error, not
    as a traceback or a half-unlocked design."""
    if key is None:
        return
    n_key_inputs = len(key_inputs_of(circuit))
    if len(key) != n_key_inputs:
        raise BenchFormatError(
            f"{path}: {what} has {len(key)} bit(s) but the netlist has "
            f"{n_key_inputs} key input(s)"
        )
    if not set(key) <= set("01xX"):
        raise BenchFormatError(f"{path}: {what} {key!r} is not made of 0, 1 and x")


def _load_locked(path) -> tuple[Circuit, str | None]:
    """``load_bench``, plus a check that a stored key fits the key inputs.

    The key is only scored after the attack, so a misfit one must fail
    here rather than after training.
    """
    circuit, key = load_bench(path)
    _check_key(path, circuit, key, "stored key")
    return circuit, key


def _run_job(kind: str, circuit, config, store, train=()):
    """Run one attack of a :data:`repro.jobs.KINDS` kind in this process;
    with a store (``--store``, else ``REPRO_STORE``) it is keyed like a
    runner or served job, so a hit skips the attack and a miss is kept."""
    from repro import jobs
    from repro.store import resolve_store

    store = resolve_store(store)
    if store is None:
        return jobs.KINDS[kind].run(circuit, config, train)
    return jobs.get_or_compute(jobs.make_job(kind, circuit, config, train), store)


def _cmd_generate(args: argparse.Namespace) -> int:
    circuit = load_benchmark(args.benchmark, scale=args.scale)
    dump_bench(circuit, args.output)
    print(f"wrote {circuit!r} to {args.output}")
    return 0


def _cmd_lock(args: argparse.Namespace) -> int:
    circuit, _ = load_bench(args.netlist)
    locked = _SCHEMES[args.scheme](circuit, key_size=args.key_size, seed=args.seed)
    dump_bench(locked.circuit, args.output, key=locked.key)
    print(f"locked with {locked.scheme}, key={locked.key}")
    print(f"wrote {args.output}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    if (args.resume or args.checkpoint_every) and not args.checkpoint:
        print(
            "error: --resume/--checkpoint-every require --checkpoint",
            file=sys.stderr,
        )
        return 2
    if args.serve and (args.checkpoint or args.resume or args.checkpoint_every):
        print(
            "error: --checkpoint/--resume/--checkpoint-every are local to "
            "this host and cannot be served",
            file=sys.stderr,
        )
        return 2
    if args.dtype:
        import repro.nn as nn

        nn.set_default_dtype(args.dtype)
    circuit, key = _load_locked(args.netlist)
    config = MuxLinkConfig(
        h=args.h,
        threshold=args.threshold,
        train=TrainConfig(
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            seed=args.seed,
            patience=args.patience,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            log_every=args.log_every,
        ),
        seed=args.seed,
        score_prefetch=args.score_prefetch,
    )
    if args.serve:
        # Served mode: ship the request to a `repro serve` process and
        # decode the returned artifact — the output lines below stay
        # byte-identical to a local run for the parity gates.
        from repro.client import ServeClient

        with ServeClient(args.serve) as client:
            result = client.attack(circuit, config)
    else:
        result = _run_job("attack", circuit, config, args.store)
    # A stored or served artifact was trained at some threshold: decide
    # the bits at this one (the identity on a fresh local result).
    predicted = rescore_key(result, config.threshold)
    print(f"predicted key: {predicted}")
    if key:
        metrics = score_key(predicted, key)
        print(
            f"AC={metrics.accuracy:.3f} PC={metrics.precision:.3f} "
            f"KPA={metrics.kpa:.3f} X={metrics.n_x}"
        )
    print(f"runtime: {result.total_runtime:.1f}s")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import (
        active_scale,
        format_fig7,
        format_fig8,
        format_fig9,
        format_fig10,
        run_fig7,
        run_fig8,
        run_fig9,
        run_fig10,
    )

    scale = active_scale(args.scale)
    drivers = {
        7: (run_fig7, format_fig7),
        8: (run_fig8, format_fig8),
        9: (run_fig9, format_fig9),
        10: (run_fig10, format_fig10),
    }
    with _open_runner(args, scale) as runner:
        for figure in args.figures:
            run, fmt = drivers[figure]
            print()
            print(fmt(run(scale=scale, seed=args.seed, runner=runner)))
        _print_runner_summary(runner)
    return 0


def _open_runner(args: argparse.Namespace, scale):
    """The ``figures``/``leaderboard`` runner, with its banner printed."""
    from repro.experiments import ExperimentRunner

    jobs = args.jobs if args.jobs is not None else "env"
    print(f"scale={scale.name} jobs={jobs}")
    runner = ExperimentRunner(
        jobs=args.jobs,
        store=args.store,
        bus_addr=args.bus_addr,
    )
    if runner.store is not None:
        print(f"store={runner.store.root}")
    if runner.bus is not None:
        print(f"bus=socket addr={runner.bus.address}")
    return runner


def _print_runner_summary(runner) -> None:
    print()
    print(f"runner: {runner.stats.summary()}")
    if runner.bus is not None:
        print(f"bus[socket]: {runner.bus.stats.summary()}")
    if runner.store is not None:
        print(f"store: {runner.store.stats.summary()}")


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.serve import run_worker

    serve_addr = setting("REPRO_SERVE_ADDR", args.serve_addr)
    if serve_addr is None:
        raise ServeError(
            "worker needs a serve endpoint: pass --serve-addr or set "
            "REPRO_SERVE_ADDR"
        )
    stats = run_worker(
        serve_addr, poll=args.poll, idle_timeout=args.idle_timeout
    )
    print(f"worker: {stats.summary()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import functools
    import signal

    from repro.serve import AttackServer, Fleet

    # Flush per line: the fleet shares the server's stdout, and a worker
    # ends on SIGTERM, which never flushes a buffer.
    fleet = Fleet(
        args.workers, poll=args.poll, log=functools.partial(print, flush=True)
    )
    server = AttackServer(
        args.addr,
        args.store,
        poll=args.poll,
        cache_entries=args.cache_entries,
    )
    # Readiness line first (benches and CI parse the bound address from
    # it — the listening socket is already open at this point).
    print(
        f"serve: listening on {server.address} "
        f"(store {server.store.root}, workers {args.workers})",
        flush=True,
    )
    # SIGTERM stops the loop like a `shutdown` op, so the finally below
    # still terminates the workers instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda *_: server.stop())
    try:
        # Fork the fleet from this warm process, once, before
        # serve_forever can start its fail-over thread: each worker
        # inherits every imported module instead of paying a cold import.
        fleet.start(server)
        stats = server.serve_forever()
    finally:
        server.close()
        fleet.close()
    print(f"serve: {stats.summary()}")
    print(f"serve: store {server.store.stats.summary()}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Lazy import: repro.faults.chaos drives repro.experiments, which the
    # faults package itself must never pull in at import time.
    from repro.experiments import active_scale
    from repro.faults.chaos import run_chaos

    scale = active_scale(args.scale)
    try:
        outcomes = run_chaos(
            args.plan, scale=scale, seed=args.seed, keep=args.keep
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    failed = [o for o in outcomes if not o.ok]
    injected = sum(o.total_injected for o in outcomes)
    recovered = sum(
        o.requeues + o.failed_over + o.write_retries + o.store_discards
        for o in outcomes
    )
    print(
        f"chaos: {len(outcomes) - len(failed)}/{len(outcomes)} drill(s) "
        f"passed, {injected} fault(s) injected, {recovered} recover(y/ies)"
    )
    return 1 if failed else 0


def _cache_store(args: argparse.Namespace):
    """Resolve the store for ``repro cache`` (--store beats REPRO_STORE)."""
    from repro.store import resolve_store

    store = resolve_store(args.store)
    if store is None:
        print(
            "error: no artifact store — pass --store DIR or set REPRO_STORE",
            file=sys.stderr,
        )
    return store


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    if args.cache_command == "ls":
        entries = list(store.entries())
        for entry in entries:
            print(f"{entry.kind:<12}{entry.size:>12}  {entry.key}")
        print(f"{len(entries)} artifact(s) in {store.schema_dir}")
        return 0
    if args.cache_command == "stats":
        by_kind: dict[str, tuple[int, int]] = {}
        for entry in store.entries():
            count, size = by_kind.get(entry.kind, (0, 0))
            by_kind[entry.kind] = (count + 1, size + entry.size)
        total_count = sum(c for c, _ in by_kind.values())
        total_size = sum(s for _, s in by_kind.values())
        if args.json:
            import json

            print(
                json.dumps(
                    {
                        "root": str(store.root),
                        "schema": store.schema,
                        "kinds": {
                            kind: {"count": count, "bytes": size}
                            for kind, (count, size) in sorted(by_kind.items())
                        },
                        "total": {"count": total_count, "bytes": total_size},
                    },
                    indent=2,
                )
            )
            return 0
        print(f"store {store.root} (schema v{store.schema})")
        for kind in sorted(by_kind):
            count, size = by_kind[kind]
            print(f"  {kind:<12}{count:>8} artifact(s) {size:>14} bytes")
        print(f"  {'total':<12}{total_count:>8} artifact(s) {total_size:>14} bytes")
        return 0
    if args.cache_command == "gc":
        removed, freed = store.gc(keep_days=args.keep_days)
        print(
            f"removed {removed} file(s), freed {freed} bytes "
            f"(kept entries touched within {args.keep_days} day(s))"
        )
        return 0
    if args.cache_command == "verify":
        corrupt = store.verify(delete=args.delete)
        checked = len(list(store.entries())) + (len(corrupt) if args.delete else 0)
        for entry in corrupt:
            action = "deleted" if args.delete else "corrupt"
            print(f"{action}: {entry.path}")
        print(f"verified {checked} artifact(s), {len(corrupt)} corrupt")
        return 1 if corrupt else 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_baseline(args: argparse.Namespace) -> int:
    """``saam``, ``scope`` and ``sweep``: run one baseline attack."""
    from repro.attacks import BaselineConfig
    from repro.locking.common import LockedCircuit

    circuit, key = _load_locked(args.netlist)
    train = []
    for path in getattr(args, "train", ()):
        train_circuit, train_key = _load_locked(path)
        if not train_key:
            print(
                f"error: training netlist {path} carries no '#key' "
                "comment — SWEEP is supervised and needs the ground "
                "truth of its corpus",
                file=sys.stderr,
            )
            return 2
        train.append(
            LockedCircuit(
                circuit=train_circuit,
                key=train_key,
                localities=[],
                scheme="cli",
                original_name=train_circuit.name,
            )
        )
    knobs = {
        name: getattr(args, name)
        for name in ("undecided", "seed", "margin", "ridge")
        if hasattr(args, name)
    }
    config = BaselineConfig(attack=args.command, **knobs)
    report = _run_job("baseline", circuit, config, args.store, tuple(train))
    print(f"{args.command.upper()} key guess: {report.predicted_key}")
    if key:
        metrics = score_key(report.predicted_key, key)
        if args.command == "saam":
            print(f"AC={metrics.accuracy:.3f} PC={metrics.precision:.3f}")
        else:
            kpa = f"{metrics.kpa:.3f}" if metrics.kpa == metrics.kpa else "n/a"
            print(f"AC={metrics.accuracy:.3f} KPA={kpa}")
    return 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    from repro.experiments import (
        active_scale,
        format_leaderboard,
        run_leaderboard,
    )

    scale = active_scale(args.scale)
    with _open_runner(args, scale) as runner:
        rows = run_leaderboard(
            scale=scale,
            seed=args.seed,
            runner=runner,
            attacks=tuple(args.attacks) if args.attacks else None,
            ensemble=args.ensemble,
            train_copies=args.train_copies,
        )
        print()
        print(format_leaderboard(rows))
        _print_runner_summary(runner)
    return 0


def _cmd_unlock(args: argparse.Namespace) -> int:
    circuit, stored = load_bench(args.netlist)
    key = args.key or stored
    if not key:
        print("error: no key given and none stored in the file", file=sys.stderr)
        return 2
    _check_key(args.netlist, circuit, key, "--key" if args.key else "stored key")
    unlocked = apply_key(circuit, key)
    dump_bench(unlocked, args.output)
    print(f"wrote unlocked design ({len(unlocked)} gates) to {args.output}")
    return 0


def _cmd_hd(args: argparse.Namespace) -> int:
    a, _ = load_bench(args.reference)
    b, _ = load_bench(args.candidate)
    hd = hamming_distance(a, b, n_patterns=args.patterns, seed=args.seed)
    print(f"HD = {hd:.4%} over {args.patterns} patterns")
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    for name, knob in SETTINGS.items():
        value = setting(name)
        shown = "-" if value is None else str(value)
        print(f"{name:<24}{shown:<14}{setting_source(name):<9}{knob.doc}")
    return 0


def _knob_flag(
    p: argparse.ArgumentParser, flag: str, knob: str, help: str, **kwargs
) -> None:
    """Add *flag*, which overrides setting *knob*; its help names both."""
    default = SETTINGS[knob].default
    fallback = knob if default is None else f"{knob} or {default}"
    p.add_argument(
        flag, default=None, help=f"{help} (default: {fallback})", **kwargs
    )


def _add_runner_args(p: argparse.ArgumentParser, store_help: str) -> None:
    """The runner/bus options ``figures`` and ``leaderboard`` share."""
    _knob_flag(
        p, "--jobs", "REPRO_JOBS",
        "workers forked from this process; 'auto' = all cores, 0 or 1 = "
        "serial",
        type=lambda v: v if v.strip().lower() == "auto" else int(v),
    )
    _knob_flag(
        p, "--scale", "REPRO_EXPERIMENT_SCALE", "experiment preset",
        choices=("smoke", "ci", "paper"),
    )
    p.add_argument("--seed", type=int, default=0)
    _knob_flag(p, "--store", "REPRO_STORE", store_help)
    _knob_flag(
        p, "--bus-addr", "REPRO_BUS_ADDR",
        "serve the grid on this host:port (port 0 = ephemeral), where "
        "`repro worker --serve-addr` processes join, also at --jobs 0",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="MuxLink reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a stand-in benchmark as BENCH")
    p.add_argument("benchmark", choices=benchmark_names() + ("c17",))
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("lock", help="lock a BENCH netlist")
    p.add_argument("netlist")
    p.add_argument("--scheme", choices=sorted(_SCHEMES), default="dmux")
    p.add_argument("--key-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_lock)

    p = sub.add_parser("attack", help="run MuxLink on a locked netlist")
    p.add_argument("netlist")
    p.add_argument("--h", type=int, default=3)
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--patience",
        type=int,
        default=None,
        help="early-stop after N epochs without validation-loss improvement",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        help="training checkpoint file (weights + optimizer + RNG state)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="save the checkpoint every N epochs (0 = only at the end)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume training from --checkpoint if the file exists",
    )
    p.add_argument(
        "--log-every",
        type=int,
        default=0,
        help="print training progress every N epochs (0 = silent)",
    )
    _knob_flag(
        p, "--dtype", "REPRO_DTYPE", "numeric runtime",
        choices=("float32", "float64"),
    )
    p.add_argument(
        "--score-prefetch",
        type=int,
        default=2,
        help="batches in flight in the streamed extract+score pipeline "
        "(0 = serial extract-then-score; results identical)",
    )
    _knob_flag(
        p, "--store", "REPRO_STORE",
        "artifact store directory: cache this attack by netlist digest "
        "+ config hash",
    )
    p.add_argument(
        "--serve",
        default=None,
        metavar="ADDR",
        help="submit to a running `repro serve` endpoint (host:port) "
        "instead of executing locally; output is identical",
    )
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "figures", help="regenerate paper figures over a shared runner"
    )
    p.add_argument(
        "--figures",
        type=int,
        nargs="+",
        choices=(7, 8, 9, 10),
        default=(7, 8, 9, 10),
        help="which figures to regenerate (default: all four)",
    )
    _add_runner_args(
        p,
        store_help="persistent artifact store directory; reruns resume with "
        "zero lock/train jobs",
    )
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser(
        "worker",
        help="execute the attack jobs a serve endpoint pushes",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.25,
        help="idle poll interval in seconds",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: run forever)",
    )
    _knob_flag(
        p, "--serve-addr", "REPRO_SERVE_ADDR",
        "`repro serve` endpoint (or `repro figures --bus-addr` "
        "coordinator) to hold a persistent connection to",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "chaos",
        help="fault-injection drills: run the smoke grid under a named "
        "fault plan and assert bit-parity with a clean serial run",
    )
    p.add_argument(
        "--plan",
        action="append",
        required=True,
        metavar="NAME",
        help="named fault plan to drill (repeatable): worker-crash, "
        "all-workers-die, socket-flaky, serve-flaky, torn-store, enospc",
    )
    _knob_flag(
        p, "--scale", "REPRO_EXPERIMENT_SCALE", "experiment preset",
        choices=("smoke", "ci", "paper"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--keep",
        action="store_true",
        help="keep each drill's store work directory for autopsy",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="attack-as-a-service: a persistent server with warm "
        "caches, an artifact store and persistent workers",
    )
    p.add_argument(
        "--addr",
        default="127.0.0.1:0",
        help="bind address host:port (default: ephemeral localhost port)",
    )
    _knob_flag(
        p, "--store", "REPRO_STORE",
        "artifact store directory the server owns; clients read its "
        "artifacts by key",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="persistent worker processes forked from the warm server "
        "after its one import (needs os.fork; 0 = external workers, e.g. "
        "on other hosts, connect with `repro worker --serve-addr`)",
    )
    p.add_argument("--poll", type=float, default=0.25)
    p.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="in-memory result-cache entries (the warmest tier)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cache", help="administer a persistent artifact store"
    )
    _knob_flag(p, "--store", "REPRO_STORE", "store directory")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("ls", help="list artifacts (kind, bytes, key)")
    stats_p = cache_sub.add_parser(
        "stats", help="per-kind artifact counts and bytes"
    )
    stats_p.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as machine-readable JSON",
    )
    gc_p = cache_sub.add_parser(
        "gc", help="drop artifacts not touched recently (plus stray tmp files)"
    )
    gc_p.add_argument(
        "--keep-days",
        type=float,
        required=True,
        help="keep artifacts read or written within this many days",
    )
    verify_p = cache_sub.add_parser(
        "verify", help="decode every artifact; report (and drop) corrupt ones"
    )
    verify_p.add_argument(
        "--delete",
        action="store_true",
        help="delete the corrupt artifacts instead of only reporting them",
    )
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("saam", help="run the SAAM structural attack")
    p.add_argument("netlist")
    _knob_flag(
        p, "--store", "REPRO_STORE",
        "shared artifact store; the report is keyed like runner jobs",
    )
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("scope", help="run the SCOPE constant-propagation attack")
    p.add_argument("netlist")
    p.add_argument("--undecided", choices=("coin", "x"), default="x")
    p.add_argument("--seed", type=int, default=0)
    _knob_flag(
        p, "--store", "REPRO_STORE",
        "shared artifact store; the report is keyed like runner jobs",
    )
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser(
        "sweep", help="run the SWEEP constant-propagation attack"
    )
    p.add_argument("netlist")
    p.add_argument(
        "--train",
        action="append",
        required=True,
        metavar="BENCH",
        help="locked netlist with a stored '#key' to train on "
        "(repeatable; order matters for the artifact identity)",
    )
    p.add_argument("--margin", type=float, default=1e-6)
    p.add_argument("--undecided", choices=("coin", "x"), default="x")
    p.add_argument("--ridge", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    _knob_flag(
        p, "--store", "REPRO_STORE",
        "shared artifact store; the report is keyed like runner jobs",
    )
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser(
        "leaderboard",
        help="resilience leaderboard: every attack × scheme × key size",
    )
    p.add_argument(
        "--attacks",
        nargs="+",
        choices=(
            "muxlink",
            "saam",
            "scope",
            "sweep",
            "random",
            "muxlink+scope",
            "muxlink+sweep",
        ),
        default=None,
        help="roster to run (default: all primitives; add --ensemble "
        "for the combined rows)",
    )
    p.add_argument(
        "--ensemble",
        action="store_true",
        help="also run MuxLink+SCOPE / MuxLink+SWEEP combined rows",
    )
    p.add_argument(
        "--train-copies",
        type=int,
        default=2,
        help="extra locked copies SWEEP trains on (attacked copy is "
        "always copy 0, shared with the MuxLink grid)",
    )
    _add_runner_args(
        p,
        store_help="persistent artifact store directory; shared with "
        "'figures' — a leaderboard over a fig7-warmed store re-locks "
        "and re-attacks nothing",
    )
    p.set_defaults(func=_cmd_leaderboard)

    p = sub.add_parser("unlock", help="apply a key to a locked netlist")
    p.add_argument("netlist")
    p.add_argument("--key", default=None, help="defaults to the stored #key")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_unlock)

    p = sub.add_parser("hd", help="Hamming distance between two netlists")
    p.add_argument("reference")
    p.add_argument("candidate")
    p.add_argument("--patterns", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hd)

    p = sub.add_parser(
        "config",
        help="print every REPRO_* environment knob, its value in effect "
        "and where that value came from",
    )
    p.set_defaults(func=_cmd_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
