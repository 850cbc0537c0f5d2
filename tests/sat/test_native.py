"""The native CDCL lane (``repro.sat.native``).

The C solver is checked against the pure-Python reference solver on random
formulas, must honour an active deadline through its terminate hook, and
``auto`` must fall back to the Python solver when nothing can be compiled.
The shared backend contract lives in ``test_backend_contract.py``.
"""

from __future__ import annotations

import logging
import shutil
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import limits
from repro.core.checker import CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test
from repro.sat import native
from repro.sat.backend import (
    InternalBackend,
    is_native,
    make_backend_factory,
)
from repro.sat.ipasir import IpasirBackend


@pytest.fixture(scope="module")
def native_factory():
    factory = make_backend_factory("auto")
    if not is_native(factory):
        pytest.skip("the native solver cannot be built here (no C compiler)")
    return factory


def _satisfies(model: dict[int, bool], clause) -> bool:
    return any(model.get(abs(lit), False) == (lit > 0) for lit in clause)


def test_auto_resolves_to_the_native_lane(native_factory):
    backend = native_factory()
    assert isinstance(backend, IpasirBackend)
    assert backend.name == "native"
    assert make_backend_factory("")().name == "native"
    assert not is_native(make_backend_factory("internal"))


def test_native_reports_real_counters(native_factory):
    backend = native_factory()
    backend.add_clauses([[1, 2], [-1, 2], [1, -2], [-1, -2, 3]])
    assert backend.solve() is True
    stats = backend.stats()
    assert stats.propagations > 0 and stats.decisions > 0


_LITERAL = st.integers(1, 8).flatmap(lambda v: st.sampled_from([v, -v]))
_CLAUSE = st.lists(_LITERAL, min_size=0, max_size=4)
_STEP = st.tuples(
    st.lists(_CLAUSE, max_size=12),
    st.lists(st.lists(_LITERAL, max_size=4), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=4))
def test_native_agrees_with_the_python_solver(steps):
    """Random small CNFs grown incrementally, each batch followed by solves
    under assumptions: both solvers agree on every verdict, every native
    model satisfies the clauses and assumptions, and every native core is
    an unsatisfiable subset of its assumptions (empty only when the
    formula alone is unsatisfiable)."""
    factory = make_backend_factory("auto")
    if not is_native(factory):
        pytest.skip("the native solver cannot be built here")
    fast, reference = factory(), InternalBackend()
    clauses: list[list[int]] = []
    for batch, queries in steps:
        # Bulk add on the native side, one clause at a time on the other.
        fast.add_clauses(batch)
        for clause in batch:
            reference.add_clause(clause)
        clauses.extend(batch)
        for assumptions in queries:
            verdict = fast.solve(assumptions)
            assert verdict is reference.solve(assumptions)
            if verdict:
                model = fast.model()
                assert all(_satisfies(model, clause) for clause in clauses)
                assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)
                assert fast.failed_assumptions() == []
                continue
            core = fast.failed_assumptions()
            assert set(core) <= set(assumptions)
            assert fast.solve(core) is False
            if not core:
                assert reference.solve() is False


def test_assumption_levels_may_outnumber_variables(native_factory):
    """Every already-true assumption opens an empty decision level, so a
    conflict can be analysed at a level far above the variable count."""
    backend = native_factory()
    backend.add_clauses([[2, 3], [-2, 3], [2, -3], [-2, -3, 4], [-4, -3]])
    assert backend.solve([1] * 100_000) is False
    assert backend.failed_assumptions() == []


def _pigeonhole(pigeons: int, holes: int) -> list[list[int]]:
    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                clauses.append([-var(first, hole), -var(second, hole)])
    return clauses


def test_deadline_stops_a_hard_solve(native_factory):
    """PHP(10,9) is hard for any CDCL solver; under a 50 ms deadline the
    native solve must come back through the terminate hook as a TIMEOUT,
    never as a verdict."""
    backend = native_factory()
    backend.add_clauses(_pigeonhole(10, 9))
    started = time.monotonic()
    with limits.deadline_scope(limits.Deadline(timeout_seconds=0.05)):
        with pytest.raises(limits.TimeoutExceeded):
            backend.solve()
    assert time.monotonic() - started < 5.0
    # The interrupted solver stays usable.
    backend.add_clause([1])
    backend.add_clause([-1])
    assert backend.solve() is False


def test_build_is_cached_by_source_hash(native_factory, monkeypatch):
    path = native.library_path()
    assert path.exists() and path.parent.name == "native"
    calls = []
    monkeypatch.setattr(
        native.subprocess, "run", lambda *a, **k: calls.append(a)
    )
    assert native.build() == str(path)
    assert calls == []


def test_auto_falls_back_to_python_without_a_compiler(
    native_factory, tmp_path, monkeypatch, caplog
):
    """No compiler and an empty cache directory: ``auto`` yields the
    internal backend (warning logged once) and the same verdict."""
    implementation = get_implementation("msn-unfenced")
    test = get_test("queue", "T0")
    auto = CheckOptions(solver_backend="auto")
    native_result = CheckSession(implementation, auto).check(test, "relaxed")
    assert native_result.stats.solver_backend == "native"

    monkeypatch.setattr(native, "_library", native._UNRESOLVED)
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    monkeypatch.setenv("CHECKFENCE_CACHE_DIR", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="repro.sat.native"):
        factory = make_backend_factory("auto")
        make_backend_factory("auto")
    assert not is_native(factory)
    assert isinstance(factory(), InternalBackend)
    assert len(caplog.records) == 1
    fallback_result = CheckSession(implementation, auto).check(test, "relaxed")
    assert fallback_result.stats.solver_backend.endswith("internal")
    assert fallback_result.passed == native_result.passed is False
    assert list(tmp_path.iterdir()) == []
