"""Machine-readable perf records for the bench suite.

Every bench appends its section to one JSON document —
``BENCH_training.json`` by default, overridable via the
``REPRO_BENCH_RECORD`` environment variable — which CI uploads as a build
artifact and which a snapshot of lives at the repo root, seeding the
cross-PR performance trajectory.  Sections are merged read-modify-write
so several benches (bench_training, bench_spmm) can
contribute to one record within a CI job.

Schema 2: a section is no longer overwritten per run.  Each holds::

    {"latest": {...},                  # the newest measurement
     "trajectory": [{...}, {...}]}     # appended run history, oldest first

so the record accumulates a per-section perf trajectory across runs (and
across PRs, when the committed snapshot is refreshed).  Schema-1 records
— a bare payload per section — are migrated on first touch: the old
payload becomes the first trajectory entry.
"""

from __future__ import annotations

import json
import os
import platform
import time

RECORD_SCHEMA = 2

#: Trajectory entries kept per section; the oldest fall off so the
#: committed snapshot stays reviewable.
TRAJECTORY_LIMIT = 50


def record_path() -> str:
    return os.environ.get("REPRO_BENCH_RECORD", "BENCH_training.json")


def _load(path: str) -> dict:
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            pass
    return {}


def _as_section(value) -> dict:
    """Normalize a section to schema-2 shape, migrating schema-1 bodies."""
    if isinstance(value, dict) and set(value) <= {"latest", "trajectory"}:
        trajectory = value.get("trajectory", [])
        return {"trajectory": list(trajectory) if trajectory else []}
    if isinstance(value, dict) and value:
        return {"trajectory": [value]}  # schema-1 payload becomes history
    return {"trajectory": []}


def update_record(section: str, payload: dict) -> str:
    """Append *payload* under *section* in the shared perf record.

    The payload becomes the section's ``latest`` and is appended to its
    ``trajectory`` (stamped with the run time).  Returns the record path.
    Timestamps and host fingerprints are attached at the top level so
    downstream tooling can normalize runs.
    """
    path = record_path()
    record = _load(path)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    record["schema"] = RECORD_SCHEMA
    record["generated_at"] = stamp
    record.setdefault("host", {})
    record["host"].update(
        {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "ci": bool(os.environ.get("CI")),
        }
    )
    entry = dict(payload)
    entry["recorded_at"] = stamp
    body = _as_section(record.get(section))
    body["latest"] = entry
    body["trajectory"].append(entry)
    del body["trajectory"][:-TRAJECTORY_LIMIT]
    record[section] = body
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path
