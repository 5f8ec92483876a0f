"""Run the benchmark over ten seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/steady.py [--baseline perfbench/baseline.json]

For every workload in ``BENCHMARK.json`` it makes ten untraced runs, one
seed each (``1..10``), and prints every end-to-end metric's median,
quartiles and spread — the distance between the quartiles as a share of
the median — next to the metric's bound from ``BENCHMARK.json`` and a
third of it.  It exits 1 when any spread is above that third.
With ``--baseline`` it also makes one traced run per workload and writes
the medians, the spreads and the per-layer split, with the host, to that
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (host record, result object)."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    host = next(json.loads(line)["host"] for line in lines if line.startswith('{"host"'))
    return host, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        samples: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, RUNS + 1):
            host, result = run_once(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                samples[name].append(metric["value"])
        entry = {"end_to_end": {}}
        print(f"\n{workload} ({RUNS} runs)")
        for name, values in samples.items():
            stats = summarize(values)
            bound = bounds[name]["bound"]
            if stats["spread"] <= bound / 3:
                flag = ""
            else:
                flag = "  UNSTEADY" if stats["spread"] <= bound else "  OVER BOUND"
            steady &= not flag
            print(
                f"  {name:<18} median {stats['median']:>12.4f} {bounds[name]['unit']:<6}"
                f" spread {stats['spread']:.4f} (bound {bound}, bound/3 {bound / 3:.4f}){flag}\n"
                f"    " + " ".join(f"{v:.4g}" for v in values),
                flush=True,
            )
            entry["end_to_end"][name] = {"unit": bounds[name]["unit"], **stats}
        if args.baseline is not None:
            _, traced = run_once(workload, 1, spec["run_seconds"], 1)
            entry["per_layer"] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
        report["host"] = host
        report["workloads"][workload] = entry
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
