"""Gate: distributed figure output must be bit-identical to serial.

Usage: ``check_bus_parity.py SERIAL.txt DISTRIBUTED.txt``.

Compares the figure tables of two ``repro figures`` transcripts after
dropping run bookkeeping (runner/bus/store stats, the ``bus=``/
``store=``/``scale=`` banner) and masking the trailing wall-clock
column — a worker measures its own runtime; every *computed* value is
compared exactly.  Exits non-zero with a diff on divergence.
"""

from __future__ import annotations

import difflib
import re
import sys

_BOOKKEEPING = ("runner:", "bus[", "store:", "store=", "bus=", "scale=")


def tables(path: str) -> list[str]:
    kept = []
    with open(path) as handle:
        for line in handle:
            if line.startswith(_BOOKKEEPING):
                continue
            kept.append(re.sub(r"\d+\.\d$", "<sec>", line.rstrip()))
    return kept


def main(argv: list[str]) -> int:
    serial, distributed = tables(argv[1]), tables(argv[2])
    if serial != distributed:
        sys.stderr.write("figure tables diverged from serial:\n")
        sys.stderr.writelines(
            f"{line}\n"
            for line in difflib.unified_diff(
                serial, distributed, argv[1], argv[2], lineterm=""
            )
        )
        return 1
    rows = sum(1 for line in serial if line.strip())
    print(f"bit-parity OK ({rows} table lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
