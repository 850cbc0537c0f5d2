"""Span tracing of the program's layers, from outside the program.

:func:`Tracer.installed` wraps each layer's public functions (and the
``Solver.solve`` / ``Simplifier.preprocess`` methods on their classes) so
that every call records one span: layer, function name, start, end and the
span that was open when it began.  A function imported by name into other
modules (``encode_test`` into ``core.session``, ``core.inclusion``,
``core.synthesize``, ``oracle.differ`` ...) is replaced in every loaded
``repro`` module that holds it, because patching only the defining module
would miss those callers.  Count hooks read the results at the same
boundaries (observations mined, CNF size, solver counters, enumeration
nodes, fence cost).

Spans stay in memory until the run ends; :meth:`Tracer.write_jsonl` and
:meth:`Tracer.write_chrome` export them, the latter as Chrome trace-event
JSON that Perfetto (ui.perfetto.dev) or ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager

#: Layer, defining module, function.
FUNCTIONS = (
    ("lang", "repro.lang.lower", "compile_c"),
    ("encoding.testprogram", "repro.encoding.testprogram", "compile_test"),
    ("core.specification", "repro.core.specification", "mine_specification"),
    ("encoding.formula", "repro.encoding.formula", "encode_test"),
    ("core.inclusion", "repro.core.inclusion", "run_assertion_check"),
    ("core.inclusion", "repro.core.inclusion", "run_inclusion_check"),
    ("core.counterexample", "repro.core.counterexample", "build_trace"),
    ("core.synthesize", "repro.core.synthesize", "synthesize_fences"),
    ("oracle.enumerator", "repro.oracle.enumerator", "enumerate_outcomes"),
    ("rfcheck.miner", "repro.rfcheck.miner", "rfcheck_outcomes"),
    ("oracle.differ", "repro.oracle.differ", "mine_sat_outcomes"),
    ("harness.matrix", "repro.harness.matrix", "run_matrix"),
)

#: Layer, defining module, class, method.
METHODS = (
    ("sat.simplify", "repro.sat.simplify", "Simplifier", "preprocess"),
    ("sat.solver", "repro.sat.solver", "Solver", "solve"),
)

#: Modules the workloads call into, imported before any wrapping.
ENTRY_MODULES = (
    "repro.core.session", "repro.harness.runner", "repro.fuzz.harness",
)

#: Layer of the spans the benchmark itself opens (passes and cells); its
#: self time is the part of a pass that no program layer covers.
BENCH_LAYER = "bench"

#: Every layer that reports a self time, in pipeline order.
LAYERS = (
    "lang", "encoding.testprogram", "core.specification", "encoding.formula",
    "sat.simplify", "sat.solver", "core.inclusion", "core.counterexample",
    "core.synthesize", "oracle.enumerator", "rfcheck.miner", "oracle.differ",
    "harness.matrix", BENCH_LAYER,
)

_SOLVER_COUNTERS = (
    "decisions", "propagations", "conflicts", "restarts", "learned_clauses",
)


class Tracer:
    """Nested spans and counters of one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: [id, parent id or -1, layer, name, start, end, nested] where
        #: ``nested`` marks a span opened inside a span of its own layer.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.counts: Counter = Counter()
        #: ``cache_stats`` dicts of every CheckSession built while tracing
        #: (the session mutates them in place; holding the dict keeps the
        #: session itself collectable).
        self.session_stats: list[dict] = []
        self.backends: Counter = Counter()
        self._solvers: weakref.WeakSet = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def enter(self, layer: str, name: str) -> int:
        stack = self._stack
        sid = len(self.spans)
        self.spans.append([
            sid, stack[-1] if stack else -1, layer, name,
            time.perf_counter(), 0.0, self._open[layer] > 0,
        ])
        self._open[layer] += 1
        stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter()
        self._open[span[2]] -= 1
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        sid = self.enter(layer, name)
        try:
            yield
        finally:
            self.exit(sid)

    def bench_span(self, name: str):
        return self.span(BENCH_LAYER, name)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, layer, name, original, before=None, after=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = tracer.enter(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(sid)
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def _patch(self, owner, attribute, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        hooks = self._hooks()  # keyed by function or method name
        # Import every defining module and the entry points first, so each
        # module that imports a wrapped name holds the original when the
        # scan below replaces it (and gets it back on exit).
        for module_name in ENTRY_MODULES + tuple(
            entry[1] for entry in FUNCTIONS + METHODS
        ):
            importlib.import_module(module_name)
        try:
            for layer, module_name, function in FUNCTIONS:
                original = getattr(sys.modules[module_name], function)
                before, after = hooks.get(function, (None, None))
                wrapper = self._wrap(layer, function, original, before, after)
                for module in [
                    m for key, m in sys.modules.items()
                    if key == "repro" or key.startswith("repro.")
                ]:
                    if getattr(module, function, None) is original:
                        self._patch(module, function, wrapper)
            for layer, module_name, class_name, method in METHODS:
                owner = getattr(sys.modules[module_name], class_name)
                before, after = hooks.get(method, (None, None))
                self._patch(owner, method, self._wrap(
                    layer, f"{class_name}.{method}", getattr(owner, method),
                    before, after,
                ))
            self._observe_sessions_and_backends()
            yield self
        finally:
            for owner, attribute, original in reversed(self._patches):
                setattr(owner, attribute, original)
            self._patches.clear()

    def _observe_sessions_and_backends(self) -> None:
        """Collect every session's cache counters and the backend each
        encoded formula was solved on (hooks only, no spans)."""
        from repro.core.session import CheckSession
        from repro.encoding.formula import EncodedTest

        tracer = self
        session_init = CheckSession.__init__
        encoded_solve = EncodedTest.solve

        def init(session, *args, **kwargs):
            session_init(session, *args, **kwargs)
            tracer.session_stats.append(session.cache_stats)

        def solve(encoded, *args, **kwargs):
            result = encoded_solve(encoded, *args, **kwargs)
            tracer.backends[encoded.backend_name or "none"] += 1
            return result

        self._patch(CheckSession, "__init__", init)
        self._patch(EncodedTest, "solve", solve)

    def _hooks(self) -> dict:
        counts = self.counts
        solvers = self._solvers

        def observations(args, spec, state):
            counts["core.specification.observations"] += len(spec)

        def encoded(args, encoded_test, state):
            stats = encoded_test.stats
            counts["encoding.formula.cnf_vars"] += stats.cnf_variables
            counts["encoding.formula.cnf_clauses"] += stats.cnf_clauses
            counts["encoding.formula.skeletons_reused"] += int(
                stats.skeleton_shared
            )

        def preprocessed(args, survivors, state):
            stats = args[0].stats
            counts["sat.simplify.clauses_before"] += stats.clauses_before
            counts["sat.simplify.clauses_after"] += stats.clauses_after

        def solver_before(args):
            return args[0].total_stats.copy()

        def solver_after(args, outcome, before):
            solver = args[0]
            after = solver.total_stats
            for counter in _SOLVER_COUNTERS:
                counts[f"sat.solver.{counter}"] += (
                    getattr(after, counter) - getattr(before, counter)
                )
            if solver not in solvers:
                solvers.add(solver)
                counts["sat.solver.formulas"] += 1

        def nodes(args, result, state):
            counts["oracle.enumerator.nodes"] += result.nodes

        def fence_cost(args, result, state):
            counts["core.synthesize.fence_cost"] += result.cost

        return {
            "mine_specification": (None, observations),
            "encode_test": (None, encoded),
            "preprocess": (None, preprocessed),
            "solve": (solver_before, solver_after),
            "enumerate_outcomes": (None, nodes),
            "synthesize_fences": (None, fence_cost),
        }

    # ------------------------------------------------------------ analysis

    def layer_times(self) -> tuple[dict, dict, dict]:
        """Per-layer total time, per-layer self time, and per-function
        (total time, calls).

        A layer's total counts only its outermost spans, so a layer that
        re-enters itself is not charged twice; its self time is each span's
        duration minus the time its direct children cover (children of one
        span run one after another, so their sum is the covered time).
        """
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        functions: dict[tuple, list] = {}
        for sid, _, layer, name, start, end, nested in self.spans:
            duration = end - start
            self_time[layer] += duration - covered[sid]
            if not nested:
                total[layer] += duration
            entry = functions.setdefault((layer, name), [0.0, 0])
            entry[0] += duration
            entry[1] += 1
        return total, self_time, functions

    # -------------------------------------------------------------- export

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, layer, name, start, end, _ in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer,
                    "name": name, "start_s": start - self.origin,
                    "end_s": end - self.origin,
                }) + "\n")

    def write_chrome(self, path, metadata: dict) -> None:
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent},
            }
            for sid, parent, layer, name, start, end, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": metadata,
            }, handle)
