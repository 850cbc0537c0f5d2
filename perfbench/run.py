#!/usr/bin/env python3
"""Production-path benchmark of the CheckFence reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fence_repair --seed 1 --seconds 60 --trace 0

Workloads (``workloads.py``, verdicts in ``expected/``): ``catalog_small``,
``heavy_check``, ``fence_repair`` and ``fuzz_engines``.

``--trace 0`` is the timed run, a closed loop of whole passes.  Each pass
runs in a fresh process, exactly as a user's invocation would: the parent
times the child up to its first check call (``setup_s``), the child times
its pass and reports every cell's verdict and time to verdict.  Passes
follow one another while another one still fits into ``--seconds`` (at
least one runs).  The end-to-end metrics are medians over passes for
``setup_s``, ``wall_s`` and ``cpu_s``; the median over cells of each
cell's time to verdict (its median over passes); the largest peak RSS of
any pass; and the shares of cells that were decided and that matched the
expected verdict.  The 80th percentile of time to verdict is printed and
recorded with the number of cells beyond it.

``--trace 1`` is the traced run.  It runs one untraced pass in a child
process (for ``trace.overhead_s``), then one pass in this process with every
layer boundary wrapped (``tracer.py``), and reports the per-layer metrics.
Spans are written to ``perfbench/out/`` as JSONL and as Chrome trace-event
JSON.

Every run clears the inherited ``CHECKFENCE_*`` environment, keeps the
result store off, checks each verdict against ``expected/``, writes a full
record to ``perfbench/out/`` and prints one JSON object as the last line of
standard output.  It exits 1 if any verdict differs from the expectation
and 2 if the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fuzz corpus seed of the gated runs, and the seed held out for
#: re-checking a claim (``expected/fuzz_engines.json`` records both).
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Largest share of the traced wall time that the layer self times may
#: leave unaccounted for (or over-count) before the traced run fails.
SELF_TIME_TOLERANCE = 0.02

#: A percentile is citable only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Mismatched cells listed by name in a record.
MAX_LISTED_MISMATCHES = 20

#: (name, unit, better) of the metrics each mode prints, in order.  The
#: 80th percentile of time to verdict is recorded and printed but not in
#: this list: fence_repair has 24 cells, so too few lie beyond it to cite.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("verdict_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("decided_share", "ratio", "higher"),
    ("verdict_match_share", "ratio", "higher"),
)

PER_LAYER = (
    ("lang.compile_c_s", "s", "lower"),
    ("lang.compile_c_calls", "count", "lower"),
    ("encoding.testprogram.compile_test_s", "s", "lower"),
    ("encoding.testprogram.compile_test_calls", "count", "lower"),
    ("core.session.compile_hit_ratio", "ratio", "higher"),
    ("core.session.mine_hit_ratio", "ratio", "higher"),
    ("core.specification.mine_s", "s", "lower"),
    ("core.specification.mine_calls", "count", "lower"),
    ("core.specification.observations", "count", "lower"),
    ("encoding.formula.encode_s", "s", "lower"),
    ("encoding.formula.encode_calls", "count", "lower"),
    ("encoding.formula.skeleton_reuse_ratio", "ratio", "higher"),
    ("encoding.formula.cnf_vars", "count", "lower"),
    ("encoding.formula.cnf_clauses", "count", "lower"),
    ("sat.simplify.preprocess_s", "s", "lower"),
    ("sat.simplify.preprocess_calls", "count", "lower"),
    ("sat.simplify.preprocessed_ratio", "ratio", "lower"),
    ("sat.simplify.clause_reduction", "ratio", "higher"),
    ("sat.solver.solve_s", "s", "lower"),
    ("sat.solver.solve_calls", "count", "lower"),
    ("sat.solver.decisions", "count", "lower"),
    ("sat.solver.propagations", "count", "lower"),
    ("sat.solver.conflicts", "count", "lower"),
    ("sat.solver.restarts", "count", "lower"),
    ("sat.solver.learned_clauses", "count", "lower"),
    ("core.inclusion.assertion_s", "s", "lower"),
    ("core.inclusion.inclusion_s", "s", "lower"),
    ("core.inclusion.queries", "count", "lower"),
    ("core.counterexample.build_trace_s", "s", "lower"),
    ("core.counterexample.traces", "count", "lower"),
    ("core.synthesize.search_s", "s", "lower"),
    ("core.synthesize.calls", "count", "lower"),
    ("core.synthesize.fence_cost", "count", "lower"),
    ("oracle.enumerator.enumerate_s", "s", "lower"),
    ("oracle.enumerator.nodes", "count", "lower"),
    ("rfcheck.miner.outcomes_s", "s", "lower"),
    ("rfcheck.miner.calls", "count", "lower"),
    ("oracle.differ.sat_mining_s", "s", "lower"),
    ("harness.matrix.overhead_s", "s", "lower"),
) + tuple(
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS
) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.self_time_gap", "ratio", "lower"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="names the run in its record; every workload is pinned",
    )
    parser.add_argument(
        "--corpus-seed", type=int, default=DEFAULT_SEED,
        help=f"fuzz_engines corpus seed (default {DEFAULT_SEED}; "
        f"{HELD_OUT_SEED} is held out)",
    )
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--one-pass", action="store_true",
        help="internal: set up, print 'ready', run one pass "
        "and print its result as JSON",
    )
    return parser.parse_args(argv)


def make_hermetic() -> list[str]:
    """Clear every inherited CHECKFENCE_* variable (child processes inherit
    the cleared environment) and point the cache directory into the
    benchmark's output; the result store stays off by default."""
    cleared = sorted(k for k in os.environ if k.startswith("CHECKFENCE_"))
    for key in cleared:
        del os.environ[key]
    os.environ["CHECKFENCE_CACHE_DIR"] = str(OUT_DIR / "cache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return cleared


def ordered(table, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of ``table``."""
    missing = [name for name, _, _ in table if name not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in table
    }


def p80(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def environment(cleared: list[str]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cleared_env": cleared,
        "store": "off",
        "cache_dir": os.path.relpath(os.environ["CHECKFENCE_CACHE_DIR"], ROOT),
    }


def judge(cells) -> dict:
    mismatched = [c for c in cells if c.mismatch]
    return {
        "attempted": len(cells),
        "mismatches": len(mismatched),
        "undecided": sum(c.undecided for c in cells),
        "mismatched_cells": [
            {"cell": c.name, "verdict": c.verdict, "expected": c.expected}
            for c in mismatched[:MAX_LISTED_MISMATCHES]
        ],
        "backends": dict(Counter(c.backend for c in cells if c.backend)),
    }


def merge_verdicts(parts: list[dict]) -> dict:
    backends: Counter = Counter()
    for part in parts:
        backends.update(part["backends"])
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "mismatches": sum(p["mismatches"] for p in parts),
        "undecided": sum(p["undecided"] for p in parts),
        "mismatched_cells": [
            cell for p in parts for cell in p["mismatched_cells"]
        ][:MAX_LISTED_MISMATCHES],
        "backends": dict(backends),
    }


def one_pass(args, workload_class) -> int:
    """Child side of a pass: set up, signal the first check call, run."""
    workload = workload_class(args.corpus_seed)
    print("ready", flush=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    cells, extras = workload.run_pass()
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime)
        - (usage.ru_utime + usage.ru_stime),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": after.ru_maxrss / 1024,
        "times": [[c.name, c.seconds] for c in cells if c.verdict != "MISSING"],
        "verdicts": judge(cells),
        "extras": extras,
    }))
    return 0


def spawn_pass(args) -> dict:
    """Run one pass in a fresh process; ``setup_s`` is the time from
    starting it to its first check call."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--corpus-seed", str(args.corpus_seed), "--one-pass",
    ]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        setup = time.perf_counter() - started
        output = child.stdout.read()
        code = child.wait()
    if code != 0 or ready.strip() != "ready" or not output.strip():
        raise RuntimeError(f"pass process failed with exit code {code}")
    result = json.loads(output.strip().splitlines()[-1])
    result["setup_s"] = setup
    result["elapsed_s"] = time.perf_counter() - started
    return result


def write_record(name: str, record: dict) -> None:
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def emit(summary: list[str], verdicts: dict, ok: bool, metrics: dict) -> int:
    for line in summary:
        print(line)
    for name, entry in metrics.items():
        print(f"  {name:42s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": ok,
        "attempted": verdicts["attempted"],
        # Undecided cells are mismatches too: no expectation is TIMEOUT,
        # OOM, ERROR or CRASHED.
        "failed": verdicts["mismatches"],
        "metrics": metrics,
    }))
    return 0 if ok else 1


def timed_run(args, cleared) -> int:
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(spawn_pass(args))
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1]["elapsed_s"] > args.seconds:
            break
    verdicts = merge_verdicts([p["verdicts"] for p in passes])
    # Each cell's time to verdict is its median over passes, so that the
    # quantiles are over distinct cells rather than over repeats of them.
    per_cell: dict[str, list[float]] = {}
    for p in passes:
        for name, seconds in p["times"]:
            per_cell.setdefault(name, []).append(seconds)
    times = [statistics.median(samples) for samples in per_cell.values()]
    tail = p80(times)
    beyond_p80 = sum(t > tail for t in times)
    attempted = verdicts["attempted"]
    metrics = ordered(END_TO_END, {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "verdict_p50_s": statistics.median(times),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "decided_share": 1 - verdicts["undecided"] / attempted,
        "verdict_match_share": 1 - verdicts["mismatches"] / attempted,
    })
    ok = verdicts["mismatches"] == 0
    citable = beyond_p80 >= MIN_TAIL_SAMPLES
    write_record(f"{args.workload}-seed{args.seed}-timed.json", {
        "workload": args.workload, "seed": args.seed,
        "corpus_seed": args.corpus_seed, "seconds": args.seconds,
        "environment": environment(cleared),
        "passes": [
            {key: p[key] for key in
             ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "extras")}
            | {"cells": p["verdicts"]["attempted"]}
            for p in passes
        ],
        "verdict_cells": len(times), "verdict_p80_s": tail,
        "beyond_p80": beyond_p80, "verdict_p80_citable": citable,
        "cell_times_s": per_cell, "verdicts": verdicts, "metrics": metrics,
    })
    summary = [
        f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
        f"{attempted} cells, {verdicts['mismatches']} mismatches, "
        f"{verdicts['undecided']} undecided, backends {verdicts['backends']}",
        f"  time to verdict: {len(times)} cells x {len(passes)} passes, "
        f"p80 {tail:.6g} s with {beyond_p80} cells beyond it "
        f"({'citable' if citable else 'not citable'})",
    ]
    return emit(summary, verdicts, ok, metrics)


def layer_values(tracer, traced_wall: float, extras: dict) -> dict:
    total, self_time, functions = tracer.layer_times()
    counts = tracer.counts

    def calls(layer, name):
        return functions.get((layer, name), (0.0, 0))[1]

    def seconds(layer, name):
        return functions.get((layer, name), (0.0, 0))[0]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    sessions = Counter()
    for stats in tracer.session_stats:
        sessions.update(stats)
    encodes = calls("encoding.formula", "encode_test")
    preprocesses = calls("sat.simplify", "Simplifier.preprocess")
    values = {
        "lang.compile_c_s": total["lang"],
        "lang.compile_c_calls": calls("lang", "compile_c"),
        "encoding.testprogram.compile_test_s": total["encoding.testprogram"],
        "encoding.testprogram.compile_test_calls":
            calls("encoding.testprogram", "compile_test"),
        "core.session.compile_hit_ratio": ratio(
            sessions["compile_hits"],
            sessions["compile"] + sessions["compile_hits"],
        ),
        "core.session.mine_hit_ratio": ratio(
            sessions["mine_hits"], sessions["mine"] + sessions["mine_hits"],
        ),
        "core.specification.mine_s": total["core.specification"],
        "core.specification.mine_calls":
            calls("core.specification", "mine_specification"),
        "core.specification.observations":
            counts["core.specification.observations"],
        "encoding.formula.encode_s": total["encoding.formula"],
        "encoding.formula.encode_calls": encodes,
        "encoding.formula.skeleton_reuse_ratio": ratio(
            counts["encoding.formula.skeletons_reused"], encodes
        ),
        "encoding.formula.cnf_vars": counts["encoding.formula.cnf_vars"],
        "encoding.formula.cnf_clauses": counts["encoding.formula.cnf_clauses"],
        "sat.simplify.preprocess_s": total["sat.simplify"],
        "sat.simplify.preprocess_calls": preprocesses,
        "sat.simplify.preprocessed_ratio": ratio(
            preprocesses, counts["sat.solver.formulas"]
        ),
        "sat.simplify.clause_reduction": 1 - ratio(
            counts["sat.simplify.clauses_after"],
            counts["sat.simplify.clauses_before"],
        ) if counts["sat.simplify.clauses_before"] else 0.0,
        "sat.solver.solve_s": total["sat.solver"],
        "sat.solver.solve_calls": calls("sat.solver", "Solver.solve"),
        "core.inclusion.assertion_s":
            seconds("core.inclusion", "run_assertion_check"),
        "core.inclusion.inclusion_s":
            seconds("core.inclusion", "run_inclusion_check"),
        "core.inclusion.queries":
            calls("core.inclusion", "run_assertion_check")
            + calls("core.inclusion", "run_inclusion_check"),
        "core.counterexample.build_trace_s": total["core.counterexample"],
        "core.counterexample.traces":
            calls("core.counterexample", "build_trace"),
        "core.synthesize.search_s": total["core.synthesize"],
        "core.synthesize.calls": calls("core.synthesize", "synthesize_fences"),
        "core.synthesize.fence_cost": counts["core.synthesize.fence_cost"],
        "oracle.enumerator.enumerate_s": total["oracle.enumerator"],
        "oracle.enumerator.nodes": counts["oracle.enumerator.nodes"],
        "rfcheck.miner.outcomes_s": total["rfcheck.miner"],
        "rfcheck.miner.calls": calls("rfcheck.miner", "rfcheck_outcomes"),
        "oracle.differ.sat_mining_s": total["oracle.differ"],
        "harness.matrix.overhead_s": extras.get("harness.matrix.overhead_s", 0.0),
        "trace.wall_s": traced_wall,
        "trace.spans": len(tracer.spans),
        "trace.self_time_gap":
            abs(sum(self_time.values()) - traced_wall) / traced_wall,
    }
    for counter in ("decisions", "propagations", "conflicts", "restarts",
                    "learned_clauses"):
        values[f"sat.solver.{counter}"] = counts[f"sat.solver.{counter}"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_time[layer]
    return values


def traced_run(args, workload_class, cleared) -> int:
    baseline = spawn_pass(args)
    workload = workload_class(args.corpus_seed)
    tracer = Tracer()
    with tracer.installed():
        started = time.perf_counter()
        with tracer.bench_span(f"pass {args.workload}"):
            cells, extras = workload.run_pass(span=tracer.bench_span)
        traced_wall = time.perf_counter() - started
    values = layer_values(tracer, traced_wall, extras)
    values["trace.overhead_s"] = traced_wall - baseline["wall_s"]
    metrics = ordered(PER_LAYER, values)
    verdicts = merge_verdicts([judge(cells), baseline["verdicts"]])
    gap = values["trace.self_time_gap"]
    ok = verdicts["mismatches"] == 0 and gap <= SELF_TIME_TOLERANCE
    stem = f"{args.workload}-seed{args.seed}"
    metadata = {"workload": args.workload, "seed": args.seed,
                "corpus_seed": args.corpus_seed,
                "environment": environment(cleared)}
    tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
    tracer.write_chrome(OUT_DIR / f"{stem}.trace.json", metadata)
    write_record(f"{stem}-traced.json", metadata | {
        "verdicts": verdicts, "untraced_wall_s": baseline["wall_s"],
        "solves_by_backend": dict(tracer.backends),
        "self_time_tolerance": SELF_TIME_TOLERANCE, "metrics": metrics,
    })
    summary = [
        f"{args.workload} seed {args.seed} traced: {len(tracer.spans)} spans, "
        f"wall {traced_wall:.3f} s traced vs {baseline['wall_s']:.3f} s "
        f"untraced, self-time gap {gap:.2%} (tolerance "
        f"{SELF_TIME_TOLERANCE:.0%}), solves by backend {dict(tracer.backends)}",
        f"  spans: perfbench/out/{stem}.spans.jsonl and "
        f"perfbench/out/{stem}.trace.json (Chrome trace-event JSON)",
    ]
    return emit(summary, verdicts, ok, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = make_hermetic()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    workload_class = WORKLOADS.get(args.workload)
    if workload_class is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.one_pass:
        return one_pass(args, workload_class)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        return traced_run(args, workload_class, cleared)
    return timed_run(args, cleared)


if __name__ == "__main__":
    sys.exit(main())
