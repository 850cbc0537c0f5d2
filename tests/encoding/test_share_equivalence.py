"""A fresh skeleton and a reused skeleton give the same formula.

Every encode forks the model-independent skeleton memoized on the
compiled test.  The acceptance property of that design: encoding model B
right after compile (the skeleton is built for B) gives exactly the same
formula — clause for clause — as encoding model B after model A has
already forked the same skeleton, hence the same outcome sets and check
verdicts.  A per-model layer that leaked state into the shared skeleton
would break it; these tests are the gate that keeps it true.
"""

from __future__ import annotations

import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.encoding import compile_test, encode_test
from repro.fuzz import generate_program
from repro.memorymodel.base import get_model
from repro.oracle.differ import mine_sat_outcomes

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]


def test_catalog_outcome_sets_identical_on_reused_skeleton():
    """Real litmus shapes (fences, atomic blocks): under every model the
    mined outcome set is identical on a fresh compile and on a compile
    whose skeleton another model forked first."""
    from repro.litmus.catalog import available_litmus_tests

    catalog = available_litmus_tests()
    for name in [
        "store-buffering",
        "message-passing+fences",
        "load-buffering",
    ]:
        litmus = catalog[name]

        def fresh_compile():
            return compile_test(litmus.implementation, litmus.symbolic_test())

        reused = fresh_compile()
        # Warm the skeleton with the last model so that every model of the
        # loop, the first included, encodes after another model's fork.
        mine_sat_outcomes(reused, MODELS[-1])
        for model in MODELS:
            fresh = mine_sat_outcomes(fresh_compile(), model)
            assert mine_sat_outcomes(reused, model) == fresh, (
                f"{name} @ {model}"
            )


def test_fresh_and_reused_formulas_have_identical_sizes():
    """Clause and variable counts agree exactly — forking replays the same
    construction, it does not approximate it."""
    from repro.datatypes.registry import get_implementation
    from repro.harness.catalog import get_test

    implementation = get_implementation("msn")
    test = get_test("queue", "T0")
    reused_compiled = compile_test(implementation, test)
    encode_test(reused_compiled, get_model(MODELS[-1]))
    for model_name in MODELS:
        model = get_model(model_name)
        fresh = encode_test(compile_test(implementation, test), model)
        reused = encode_test(reused_compiled, model)
        assert fresh.stats.skeleton_shared is False
        assert reused.stats.skeleton_shared is True
        assert reused.cnf.num_clauses == fresh.cnf.num_clauses, model_name
        assert reused.cnf.num_vars == fresh.cnf.num_vars, model_name
        assert reused.stats.cnf_clauses == fresh.stats.cnf_clauses
        assert reused.stats.order_pairs == fresh.stats.order_pairs


def test_session_verdicts_identical_on_reused_skeleton():
    """Full checks (assertion + inclusion query, counterexample decoding)
    are verdict-identical whether the session built the skeleton for this
    model or reused it from an earlier model, including the FAIL
    direction."""
    from repro.core.session import CheckSession
    from repro.datatypes.registry import get_implementation
    from repro.harness.catalog import get_test

    cases = [("msn", "T0"), ("msn-unfenced", "T0")]
    verdicts = set()
    for impl_name, test_name in cases:
        implementation = get_implementation(impl_name)
        test = get_test("queue", test_name)
        sweep = CheckSession(implementation).sweep(
            test, [MODELS[-1]] + MODELS
        )[1:]
        for model, reused in zip(MODELS, sweep):
            fresh = CheckSession(implementation).check(test, model)
            assert fresh.stats.skeleton_shared is False
            assert reused.stats.skeleton_shared is True
            assert reused.passed == fresh.passed, (impl_name, model)
            verdicts.add(fresh.passed)
            assert (
                reused.stats.cnf_clauses == fresh.stats.cnf_clauses
            ), (impl_name, model)
            assert (
                reused.stats.cnf_variables == fresh.stats.cnf_variables
            ), (impl_name, model)
            assert (
                reused.specification.observations
                == fresh.specification.observations
            )
            if not fresh.passed:
                assert reused.counterexample is not None
                assert (
                    reused.counterexample.observation
                    not in fresh.specification
                )
    assert verdicts == {True, False}, "both PASS and FAIL were compared"


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reused_skeleton_preserves_outcome_sets_on_fuzz_programs(seed):
    """Property form over generated litmus programs: each of sc and
    relaxed (the model where every reordering axiom is live) mines the
    same outcome set after the other model forked the skeleton."""
    program = generate_program(random.Random(seed))
    reused = program.compile()
    mine_sat_outcomes(reused, "relaxed")
    for model in ("sc", "relaxed"):
        fresh = mine_sat_outcomes(program.compile(), model)
        assert mine_sat_outcomes(reused, model) == fresh, (
            f"{program.spec()} @ {model}"
        )


def test_sweep_reuses_one_skeleton():
    """Across a five-model sweep the skeleton is built exactly once and
    every later model reuses it."""
    from repro.datatypes.registry import get_implementation
    from repro.harness.catalog import get_test

    compiled = compile_test(get_implementation("msn"), get_test("queue", "T0"))
    stats = [
        encode_test(compiled, get_model(name)).stats for name in MODELS
    ]
    assert stats[0].skeleton_shared is False
    assert all(s.skeleton_shared for s in stats[1:])
    assert stats[0].skeleton_seconds > 0.0
    assert all(s.skeleton_seconds == 0.0 for s in stats[1:])


_DETERMINISM_SNIPPET = """\
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.encoding.formula import encode_test
from repro.harness.catalog import get_test
from repro.memorymodel.base import get_model

session = CheckSession(get_implementation("msn"))
test = get_test("queue", "T0")
for model_name in ["sc", "tso", "relaxed"]:
    model = get_model(model_name)
    compiled = session.compile(test, model)
    encoded = encode_test(compiled, model)
    print(model_name, encoded.cnf.num_vars, encoded.cnf.num_clauses,
          encoded.stats.skeleton_shared)
"""


def test_two_process_determinism(src_on_subprocess_path):
    """Two independent processes produce byte-identical formula statistics
    — no hidden iteration-order or hash-seed dependence (PYTHONHASHSEED is
    left random on purpose)."""
    def run():
        return subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET],
            capture_output=True, text=True, check=True,
        ).stdout

    first, second = run(), run()
    assert first == second
    assert "relaxed" in first
    # The sweep reused the memoized skeleton on the later models.
    assert first.strip().splitlines()[-1].endswith("True")
