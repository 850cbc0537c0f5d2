"""Tests for the incremental :class:`repro.core.session.CheckSession`."""

import pytest

import repro.core.session as session_module
from repro.core.checker import CheckFence, CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test
from repro.harness.runner import model_sweep

_MODELS = ["sc", "tso", "pso", "relaxed"]


def _result_fingerprint(result):
    return (
        result.passed,
        result.memory_model,
        sorted(result.specification.observations),
        result.stats.observation_set_size,
        result.loop_bounds,
        result.notes,
    )


class TestCrossModelReuse:
    def test_sweep_mines_spec_once_with_identical_verdicts(self, monkeypatch):
        """A sweep over (sc, tso, pso, relaxed) must mine the specification
        exactly once and compile the test exactly once, while producing
        verdicts identical to independent CheckFence.check calls."""
        implementation = get_implementation("msn")
        test = get_test("queue", "T0")

        mine_calls = []
        real_mine = session_module.mine_specification

        def counting_mine(compiled, method, **kwargs):
            mine_calls.append(compiled.test.name)
            return real_mine(compiled, method, **kwargs)

        monkeypatch.setattr(
            session_module, "mine_specification", counting_mine
        )

        session = CheckSession(implementation)
        swept = session.sweep(test, _MODELS)

        assert len(mine_calls) == 1
        assert session.cache_stats["mine"] == 1
        assert session.cache_stats["mine_hits"] == len(_MODELS) - 1
        assert session.cache_stats["compile"] == 1
        assert session.cache_stats["compile_hits"] >= len(_MODELS) - 1

        independent = [
            CheckFence(get_implementation("msn")).check(test, model)
            for model in _MODELS
        ]
        for swept_result, independent_result in zip(swept, independent):
            assert _result_fingerprint(swept_result) == _result_fingerprint(
                independent_result
            )

    def test_sweep_detects_bug_same_as_independent_checks(self):
        """Reuse must not mask failures: the unfenced queue still fails on
        relaxed and passes on sc within one session."""
        implementation = get_implementation("msn-unfenced")
        results = CheckSession(implementation).sweep(
            get_test("queue", "T0"), ["sc", "relaxed"]
        )
        by_model = {r.memory_model: r for r in results}
        assert by_model["sc"].passed
        assert not by_model["relaxed"].passed
        assert by_model["relaxed"].counterexample is not None

    def test_sweep_charges_mining_time_to_the_mining_check_only(self):
        """The spec is mined by the first check of a sweep; later checks
        read it from the session cache and must report zero mining time
        instead of repeating the first check's cost."""
        results = CheckSession(get_implementation("msn")).sweep(
            get_test("queue", "T0"), ["sc", "relaxed"]
        )
        assert results[0].stats.mining_seconds > 0
        assert results[1].stats.mining_seconds == 0.0

    def test_repeated_check_same_pair_is_stable(self):
        """Re-checking the same (test, model) pair in one session returns
        the same verdict (the inclusion-contaminated encoding is evicted,
        not reused for the next assertion query)."""
        session = CheckSession(get_implementation("msn"))
        test = get_test("queue", "T0")
        first = session.check(test, "relaxed")
        second = session.check(test, "relaxed")
        assert _result_fingerprint(first) == _result_fingerprint(second)

    def test_backend_name_recorded(self):
        session = CheckSession(
            get_implementation("msn"),
            CheckOptions(solver_backend="internal"),
        )
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.stats.solver_backend == "internal"
        assert result.stats.solver_decisions > 0


class TestRunnerSweep:
    def test_model_sweep_matches_per_model_checks(self):
        results = model_sweep("ms2", "T0", _MODELS)
        assert [r.memory_model for r in results] == _MODELS
        assert all(r.passed for r in results)
        # One specification object shared across all results.
        specs = {id(r.specification) for r in results}
        assert len(specs) == 1


class TestCheckFenceFacade:
    def test_checkfence_exposes_session(self):
        checker = CheckFence(get_implementation("msn"))
        assert isinstance(checker.session, CheckSession)
        assert checker.implementation.name == "msn"
        assert checker.program is checker.session.program

    def test_dimacs_fallback_backend_matches_internal(self, monkeypatch):
        """DimacsBackend (internal fallback when nothing is on PATH) must
        produce the same verdict as InternalBackend."""
        monkeypatch.setattr(
            "repro.sat.backend.find_dimacs_solver", lambda: None
        )
        test = get_test("queue", "T0")
        internal = CheckFence(
            get_implementation("msn"), CheckOptions(solver_backend="internal")
        ).check(test, "relaxed")
        dimacs = CheckFence(
            get_implementation("msn"), CheckOptions(solver_backend="dimacs")
        ).check(test, "relaxed")
        assert internal.passed == dimacs.passed
        assert (
            sorted(internal.specification.observations)
            == sorted(dimacs.specification.observations)
        )


class TestSimplifyKnob:
    # The default is on in front of the Python solver and off in front of
    # the native one, so these sessions name the Python solver.
    _PYTHON = {"solver_backend": "internal"}

    def test_session_resolves_and_keys_on_the_knob(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        implementation = get_implementation("msn")
        test = get_test("queue", "T0")
        on_session = CheckSession(implementation, CheckOptions(**self._PYTHON))
        off_session = CheckSession(
            implementation, CheckOptions(simplify=False, **self._PYTHON)
        )
        assert on_session.simplify is True
        assert off_session.simplify is False
        model = session_module.get_model("relaxed")
        assert (
            on_session._encoded_key(test, model)
            != off_session._encoded_key(test, model)
        )
        assert on_session.encoded(test, "relaxed").simplify is True
        assert off_session.encoded(test, "relaxed").simplify is False

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "0")
        session = CheckSession(get_implementation("msn"), CheckOptions())
        assert session.simplify is False

    def test_default_is_off_in_front_of_the_native_solver(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        implementation = get_implementation("msn")
        session = CheckSession(
            implementation, CheckOptions(solver_backend="auto")
        )
        if session.backend_factory().name != "native":
            pytest.skip("the native solver cannot be built here")
        assert session.simplify is False
        assert CheckSession(
            implementation, CheckOptions(solver_backend="auto", simplify=True)
        ).simplify is True
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        assert CheckSession(
            implementation, CheckOptions(solver_backend="auto")
        ).simplify is True

    def test_check_records_simplify_in_stats(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        session = CheckSession(
            get_implementation("msn"), CheckOptions(**self._PYTHON)
        )
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.stats.simplify is True
        off = CheckSession(
            get_implementation("msn"),
            CheckOptions(simplify=False, **self._PYTHON),
        ).check(get_test("queue", "T0"), "sc")
        assert off.stats.simplify is False
        assert off.passed == result.passed
