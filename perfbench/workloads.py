"""The four pinned workloads of the production-path benchmark.

Each workload is a closed loop: one client in one process, ``jobs=1``,
issuing the next check only when the previous one returns.  Constructing a
workload does everything that precedes the first check call (imports,
expectations, the cell list); :meth:`run_pass` then runs the whole workload
once through the library's public entry points with default
``CheckOptions`` and returns one :class:`Cell` per verdict, each compared
with the hand-written expectation in ``expected/<workload>.json``.

Every workload is pinned.  ``fuzz_engines`` draws its corpus from the
seed its constructor is given (``--corpus-seed``, 1 unless a held-out
corpus is asked for); the other workloads ignore it and run their cells
in the same order for every seed, because the first check of a process pays one-time costs and a
seed-dependent order would move them between cells of a 0.2 s median.

``run_pass`` takes a ``span(name)`` context-manager factory; the traced run
passes one that records a span per benchmark-level call, the timed run a
no-op.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Verdicts that mean a cell produced no answer at all.
UNDECIDED = ("TIMEOUT", "OOM", "ERROR", "CRASHED")


def no_span(name):
    return nullcontext()


@dataclass
class Cell:
    """One verdict of a pass and the verdict the paper predicts for it."""

    name: str
    verdict: str
    expected: str
    seconds: float
    #: The SAT backend the cell actually ran on ("" where the entry point
    #: does not report it).
    backend: str = ""

    @property
    def mismatch(self) -> bool:
        return self.verdict != self.expected

    @property
    def undecided(self) -> bool:
        return self.verdict in UNDECIDED


def import_entry_points(*modules: str) -> None:
    """Import the library modules a pass calls into, so that importing them
    is paid in set-up rather than by the first check call.  Passes still
    look the functions up at call time, where the traced run wraps them."""
    for module in modules:
        importlib.import_module(module)


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_verdict(result) -> str:
    """PASS/FAIL (or the degraded verdict) of a ``CheckResult``; a FAIL
    without a counterexample trace is its own verdict, so it never matches
    an expected FAIL."""
    if result.degraded:
        return result.degraded
    if result.passed:
        return "PASS"
    if result.counterexample is None or not result.counterexample.format():
        return "FAIL-WITHOUT-TRACE"
    return "FAIL"


def matrix_verdict(cell_result) -> str:
    """The verdict of a ``CellResult``, with the same FAIL rule."""
    verdict = cell_result.verdict
    if verdict == "FAIL" and not cell_result.counterexample:
        return "FAIL-WITHOUT-TRACE"
    return verdict


def matrix_overhead(matrix) -> float:
    """Matrix wall time not spent inside any cell."""
    return matrix.elapsed_seconds - sum(r.seconds for r in matrix.results)


class CatalogSmall:
    """The five base implementations x their small Fig. 8 tests x
    sc/tso/pso/relaxed through ``run_matrix`` (56 cells)."""

    name = "catalog_small"

    def __init__(self, seed: int) -> None:
        from repro.datatypes.registry import base_implementations
        from repro.harness.matrix import catalog_cells

        import_entry_points("repro.core.checker", "repro.harness.matrix")
        expected = load_expected(self.name)
        self.expected = {
            f"{entry['implementation']}/{entry['test']}@{model}": verdict
            for entry in expected["cells"]
            for model, verdict in entry["verdicts"].items()
        }
        self.cells = catalog_cells(
            base_implementations(), models=expected["models"], size="small"
        )

    def run_pass(self, span=no_span):
        from repro.core.checker import CheckOptions
        from repro.harness.matrix import run_matrix

        matrix = run_matrix(self.cells, jobs=1, options=CheckOptions())
        cells = [
            Cell(
                name=r.cell.key,
                verdict=matrix_verdict(r),
                expected=self.expected.get(r.cell.key, "NO-EXPECTATION"),
                seconds=r.seconds,
                backend=r.stats.get("backend") or "",
            )
            for r in matrix.results
        ]
        seen = {cell.name for cell in cells}
        cells += [
            Cell(key, "MISSING", verdict, 0.0)
            for key, verdict in self.expected.items()
            if key not in seen
        ]
        return cells, {"harness.matrix.overhead_s": matrix_overhead(matrix)}


class HeavyCheck:
    """One ``CheckSession.check`` of msn/Tpc6 under sc."""

    name = "heavy_check"

    def __init__(self, seed: int) -> None:
        from repro.datatypes import get_implementation
        from repro.datatypes.registry import category_of
        from repro.harness.catalog import get_test

        import_entry_points("repro.core.session")
        (self.entry,) = load_expected(self.name)["cells"]
        name = self.entry["implementation"]
        self.implementation = get_implementation(name)
        self.test = get_test(category_of(name), self.entry["test"])

    def run_pass(self, span=no_span):
        from repro.core.session import CheckSession

        entry = self.entry
        name = f"{entry['implementation']}/{entry['test']}@{entry['model']}"
        with span(name):
            started = time.perf_counter()
            result = CheckSession(self.implementation).check(
                self.test, entry["model"]
            )
            seconds = time.perf_counter() - started
        return [Cell(
            name, check_verdict(result), entry["verdict"], seconds,
            result.stats.solver_backend or "",
        )], {}


class FenceRepair:
    """The Section 4.2/4.3 fence loop on five (implementation, test) pairs
    plus the Section 4.1 bug tests and their fixed variants.

    Each pair runs the steps of ``repro.harness.runner.fence_experiment``
    one public call at a time, so every check is its own timed cell.
    """

    name = "fence_repair"

    def __init__(self, seed: int) -> None:
        import_entry_points(
            "repro.core.session", "repro.harness.bugtests",
            "repro.harness.catalog", "repro.harness.runner",
        )
        expected = load_expected(self.name)
        self.units = [("pair", entry) for entry in expected["pairs"]]
        self.units += [("bug", entry) for entry in expected["bug_checks"]]

    def run_pass(self, span=no_span):
        cells = []
        for kind, entry in self.units:
            if kind == "pair":
                cells += self._pair(entry, span)
            else:
                cells.append(self._bug_check(entry, span))
        return cells, {}

    @staticmethod
    def _timed(name, expected, span, call, *args):
        """One cell: ``call(*args)`` returns (verdict, backend)."""
        with span(name):
            started = time.perf_counter()
            verdict, backend = call(*args)
            seconds = time.perf_counter() - started
        return Cell(name, verdict, expected, seconds, backend)

    def _pair(self, entry, span):
        base, test = entry["implementation"], entry["test"]
        verdicts = entry["verdicts"]
        cells = [
            self._timed(
                f"{implementation}/{test}@{model}", verdicts[key], span,
                self._catalog_check, implementation, test, model,
            )
            for key, implementation, model in (
                ("fenced@relaxed", base, "relaxed"),
                ("unfenced@relaxed", f"{base}-unfenced", "relaxed"),
                ("unfenced@sc", f"{base}-unfenced", "sc"),
            )
        ]
        cells.append(self._timed(
            f"synthesize {base}-unfenced/{test}@relaxed",
            verdicts["synthesize@relaxed"], span, self._synthesize, base, test,
        ))
        return cells

    @staticmethod
    def _catalog_check(implementation: str, test: str, model: str):
        from repro.harness.runner import check_catalog_test

        result = check_catalog_test(implementation, test, model)
        return check_verdict(result), result.stats.solver_backend or ""

    @staticmethod
    def _synthesize(base: str, test_name: str):
        from repro.core.session import CheckSession
        from repro.datatypes import get_implementation
        from repro.datatypes.registry import category_of
        from repro.harness.catalog import get_test
        from repro.harness.runner import count_hand_fences

        session = CheckSession(get_implementation(f"{base}-unfenced"))
        synthesis = session.synthesize(
            get_test(category_of(base), test_name), ["relaxed"]
        )
        repaired = (
            synthesis.verified_sufficient
            and synthesis.verified_minimal
            and len(synthesis.labels) <= count_hand_fences(base)
        )
        return ("REPAIRED" if repaired else "NOT-REPAIRED"), ""

    @staticmethod
    def _session_check(implementation: str, make_test, model: str):
        from repro.core.session import CheckSession
        from repro.datatypes import get_implementation

        session = CheckSession(get_implementation(implementation))
        result = session.check(make_test(), model)
        return check_verdict(result), result.stats.solver_backend or ""

    def _bug_check(self, entry, span):
        from repro.harness import bugtests

        implementation, model = entry["implementation"], entry["model"]
        return self._timed(
            f"{implementation}/{entry['test']}@{model}", entry["verdict"],
            span, self._session_check, implementation,
            getattr(bugtests, entry["test"]), model,
        )


class FuzzEngines:
    """``run_fuzz`` over a corpus drawn from the corpus seed, all three
    engines, five models."""

    name = "fuzz_engines"

    def __init__(self, seed: int) -> None:
        import_entry_points("repro.core.checker", "repro.fuzz.harness")
        self.expected = load_expected(self.name)
        self.seed = seed

    def run_pass(self, span=no_span):
        from repro.core.checker import CheckOptions
        from repro.fuzz.harness import run_fuzz

        expected = self.expected
        campaign = run_fuzz(
            expected["budget"], self.seed, models=expected["models"],
            engines=expected["engines"], jobs=1, options=CheckOptions(),
        )
        results = campaign.matrix.results
        cells = [
            Cell(r.cell.key, r.verdict, expected["cell_verdict"], r.seconds)
            for r in results
        ]
        # A short corpus still counts against the expectation; a divergence
        # is a cell whose verdict is DIVERGE.
        shortfall = expected["budget"] * len(expected["models"]) - len(results)
        cells += [
            Cell(f"missing cell {index}", "MISSING", expected["cell_verdict"], 0.0)
            for index in range(max(0, shortfall))
        ]
        return cells, {
            "harness.matrix.overhead_s": matrix_overhead(campaign.matrix),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (CatalogSmall, HeavyCheck, FenceRepair, FuzzEngines)
}
