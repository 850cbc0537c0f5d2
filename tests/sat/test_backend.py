"""Tests for the pluggable solver backend layer.

The differential suite checks random small CNFs three ways:

* :class:`InternalBackend` against brute-force truth-table enumeration;
* :class:`DimacsBackend` driving the in-tree solver through a real
  subprocess + DIMACS pipe (``python -m repro.sat.dimacs_cli``), which is
  always available;
* :class:`DimacsBackend` driving an external solver (kissat/cadical/...),
  skipped when none is installed.
"""

from __future__ import annotations

import ctypes.util
import itertools
import os
import random
import sys
from collections import Counter

import pytest

from repro.sat import CNF, ipasir
from repro.sat.backend import (
    BackendError,
    DimacsBackend,
    InternalBackend,
    find_dimacs_solver,
    make_backend_factory,
)


#: DimacsBackend command that is always runnable: the in-tree solver behind
#: a DIMACS pipe (see also the dimacs_cli_command fixture in tests/conftest).
_CLI_COMMAND = [sys.executable, "-m", "repro.sat.dimacs_cli"]


@pytest.fixture(autouse=True)
def _subprocess_path(src_on_subprocess_path):
    """Every test here may spawn the DIMACS CLI subprocess."""


def brute_force_satisfiable(cnf: CNF) -> bool:
    variables = list(range(1, cnf.num_vars + 1))
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in cnf.clauses
        ):
            return True
    return not cnf.clauses


def check_model(cnf: CNF, model: dict[int, bool]) -> bool:
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in clause)
        for clause in cnf.clauses
    )


def random_cnfs(count: int, seed: int = 20070607):
    """Deterministic stream of small random CNFs."""
    rng = random.Random(seed)
    for _ in range(count):
        num_vars = rng.randint(1, 7)
        num_clauses = rng.randint(1, 20)
        cnf = CNF()
        cnf.new_vars(num_vars)
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            cnf.add_clause([
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(size)
            ])
        yield cnf


def run_differential(make_backend, count: int) -> None:
    for cnf in random_cnfs(count):
        expected = brute_force_satisfiable(cnf)
        backend = make_backend()
        backend.add_cnf(cnf)
        got = backend.solve()
        assert got == expected, f"{backend.name} disagrees on {cnf!r}"
        if got:
            assert check_model(cnf, backend.model()), (
                f"{backend.name} returned an invalid model for {cnf!r}"
            )


class TestInternalBackend:
    def test_differential_vs_brute_force(self):
        run_differential(InternalBackend, count=120)

    def test_assumptions_and_stats(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([-a, b])
        backend = InternalBackend()
        backend.add_cnf(cnf)
        assert backend.solve(assumptions=[a]) is True
        assert backend.model()[b] is True
        backend.add_clause([-b])
        assert backend.solve(assumptions=[a]) is False
        assert backend.solve() is True
        assert backend.stats().propagations >= 1
        assert backend.name == "internal"


class TestDimacsBackendViaCli:
    """The subprocess/DIMACS path, exercised with the in-tree solver CLI."""

    def test_differential_vs_brute_force(self):
        run_differential(
            lambda: DimacsBackend(command=_CLI_COMMAND), count=25
        )

    def test_assumptions_are_temporary(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        backend = DimacsBackend(command=_CLI_COMMAND)
        backend.add_cnf(cnf)
        assert backend.solve(assumptions=[-a, -b]) is False
        # The assumptions must not have become permanent clauses.
        assert backend.solve() is True
        assert backend.solve(assumptions=[-a]) is True
        assert backend.model()[b] is True

    def test_name_reflects_command(self):
        backend = DimacsBackend(command=_CLI_COMMAND)
        assert backend.name.startswith("dimacs(")

    def test_empty_clause_is_unsat_without_subprocess(self):
        backend = DimacsBackend(command=["/nonexistent-solver"])
        assert backend.add_clause([]) is False
        assert backend.solve() is False

    def test_broken_command_raises(self):
        backend = DimacsBackend(command=["/nonexistent-solver-binary"])
        backend.add_clause([1])
        with pytest.raises(BackendError):
            backend.solve()

    def test_missing_binary_error_is_actionable(self):
        """A missing solver binary must name the binary, show the PATH
        that was searched, and point at the ways out."""
        backend = DimacsBackend(command=["no-such-solver-xyz"])
        backend.add_clause([1])
        with pytest.raises(BackendError) as excinfo:
            backend.solve()
        message = str(excinfo.value)
        assert "no-such-solver-xyz" in message
        assert "PATH" in message
        assert os.environ.get("PATH", "") in message
        assert "--solver internal" in message


@pytest.mark.skipif(
    find_dimacs_solver() is None,
    reason="no external DIMACS solver (kissat/cadical/minisat/...) on PATH",
)
class TestDimacsBackendExternal:
    def test_differential_vs_brute_force(self):
        run_differential(DimacsBackend, count=25)

    def test_reports_external_name(self):
        backend = DimacsBackend()
        assert backend.name.startswith("dimacs(")
        assert "fallback" not in backend.name


class TestFallback:
    def test_fallback_when_nothing_on_path(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sat.backend.find_dimacs_solver", lambda: None
        )
        backend = DimacsBackend()
        assert backend.name == "dimacs(fallback:internal)"
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        backend.add_cnf(cnf)
        assert backend.solve() is True
        assert backend.model()[v] is True

    def test_no_fallback_raises(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sat.backend.find_dimacs_solver", lambda: None
        )
        with pytest.raises(BackendError):
            DimacsBackend(fallback=False)


class TestBackendSpecs:
    def test_internal_specs(self):
        # "auto" and "" resolve to the native lane (tests/sat/test_native.py).
        assert isinstance(make_backend_factory("internal")(), InternalBackend)

    def test_dimacs_spec_with_command(self):
        factory = make_backend_factory(
            "dimacs:" + " ".join(_CLI_COMMAND)
        )
        backend = factory()
        assert isinstance(backend, DimacsBackend)
        backend.add_clause([1])
        assert backend.solve() is True

    def test_ipasir_spec_probes_once(self, monkeypatch):
        """Regression: the ``ipasir`` spec used to re-run the library probe
        (one ``ldconfig``/``gcc`` fork per known solver name) and reload
        the library for every backend it made, i.e. for every encode."""
        monkeypatch.delenv(ipasir.IPASIR_LIB_ENV, raising=False)
        ipasir._probe_known_libraries.cache_clear()
        probes = Counter()

        def find_library(name):
            probes[name] += 1
            return None

        monkeypatch.setattr(ctypes.util, "find_library", find_library)
        factory = make_backend_factory("ipasir")
        backends = [factory() for _ in range(20)]
        ipasir._probe_known_libraries.cache_clear()
        assert len({b.name for b in backends}) == 1
        assert probes and max(probes.values()) <= 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_SOLVER", "internal")
        assert isinstance(make_backend_factory(None)(), InternalBackend)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            make_backend_factory("zchaff")
        with pytest.raises(ValueError):
            make_backend_factory("dimacs:")
