#!/usr/bin/env python3
"""Determinism self-check of the benchmark's count metrics.

Runs the traced benchmark twice per workload, each time in a fresh process
with the same seed, and compares every per-layer metric whose unit is
``count``.  A count that does not repeat exactly is marked not citable as
count evidence.  The six counts that later changes are expected to cite
(``REQUIRED``) must repeat, or the check exits 1.

    python3 perfbench/determinism.py --workload fence_repair --seed 1

The verdict is printed and written to
``perfbench/out/determinism-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR
from workloads import WORKLOADS

REQUIRED = (
    "sat.solver.conflicts",
    "sat.solver.decisions",
    "sat.solver.propagations",
    "encoding.formula.cnf_clauses",
    "core.synthesize.calls",
    "oracle.enumerator.nodes",
)


def traced_counts(workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve().parent / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "1",
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=300)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"traced run of {workload} failed ({child.returncode}): "
            f"{child.stderr[-2000:]}"
        )
    metrics = json.loads(lines[-1])["metrics"]
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if entry["unit"] == "count"
    }


def check(workload: str, seed: int) -> bool:
    first = traced_counts(workload, seed)
    second = traced_counts(workload, seed)
    counts = {
        name: {
            "first": first[name],
            "second": second.get(name),
            "citable": first[name] == second.get(name),
        }
        for name in first
    }
    ok = all(counts[name]["citable"] for name in REQUIRED)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"determinism-{workload}-seed{seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "repeats": ok,
                   "counts": counts}, handle, indent=1)
    print(f"{workload} seed {seed}: required counts "
          f"{'repeat' if ok else 'DO NOT repeat'}")
    for name, entry in counts.items():
        mark = "citable" if entry["citable"] else "NOT citable"
        print(f"  {name:42s} {entry['first']:>14} {entry['second']!s:>14}  {mark}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="repeatable; default: every workload",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    results = [check(w, args.seed) for w in args.workload or sorted(WORKLOADS)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
