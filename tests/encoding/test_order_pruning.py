"""The conflict-aware (pruned) memory-order encoding.

Three layers of protection for the rewrite of ``repro.encoding.memory``:

* **size regression ceilings** — order-variable and transitivity-clause
  counts of representative catalog tests are pinned to ceilings, so the
  static resolution / conflict restriction / pruned transitivity cannot
  silently regress back toward the dense construction;
* **dense-vs-pruned differential** — the mined outcome set of every litmus
  catalog test under every memory model, and of generated fuzz programs
  under sc and relaxed, must be identical under both constructions, and
  catalog inclusion checks must agree (the operational oracle covers the
  same ground in ``tests/oracle/``; this covers the dense encoder
  directly, which only ``encode_test(dense_order=True)`` reaches);
* **mechanics** — static resolution facts, constant-folded ``order()``,
  dead pairs, topological counterexample decoding, and the
  assumption-lowering/backend-sync ordering fix in ``EncodedTest.solve``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.inclusion import run_assertion_check, run_inclusion_check
from repro.core.specification import mine_specification
from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.encoding.testprogram import INIT_THREAD
from repro.fuzz import generate_program
from repro.harness.catalog import get_test
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.lsl import Invocation, SymbolicTest
from repro.memorymodel.base import available_models, get_model
from repro.sat.circuit import Circuit

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]


def _compiled_catalog(implementation_name: str, test_name: str):
    implementation = get_implementation(implementation_name)
    test = get_test(category_of(implementation_name), test_name)
    return compile_test(implementation, test)


def _mine(encoded, limit=512):
    outcomes = set()
    while encoded.solve():
        observation = encoded.decode_observation(encoded.model_values())
        assert observation not in outcomes, "solver returned a blocked obs"
        outcomes.add(observation)
        encoded.block_observation(observation)
        assert len(outcomes) <= limit
    return outcomes


class TestSizeCeilings:
    """Pinned ceilings (~15% above the current values) so pruning quality
    cannot silently regress; the dense construction would blow every one
    of them by a wide margin."""

    #: (implementation, test, model) -> (max order vars, max transitivity
    #: clauses, max total CNF clauses).  Dense values for comparison:
    #: msn/T0 has 325 pairs (=325 dense vars) and 15600 dense transitivity
    #: clauses.
    CEILINGS = {
        ("msn", "T0", "relaxed"): (125, 850, 4500),
        ("msn", "T0", "serial"): (140, 1400, 6300),
        ("ms2", "T0", "relaxed"): (145, 1150, 3300),
        ("harris", "Sar", "relaxed"): (300, 3200, 28500),
        ("snark", "D0", "relaxed"): (350, 4200, 24800),
        ("lazylist", "Sac", "relaxed"): (385, 5100, 38500),
    }

    @pytest.mark.parametrize("case", sorted(CEILINGS))
    def test_catalog_sizes_stay_under_ceiling(self, case):
        implementation, test_name, model = case
        max_vars, max_transitivity, max_clauses = self.CEILINGS[case]
        encoded = encode_test(
            _compiled_catalog(implementation, test_name),
            get_model(model),
            dense_order=False,
        )
        stats = encoded.stats
        assert stats.order_vars <= max_vars
        assert stats.transitivity_clauses <= max_transitivity
        assert stats.cnf_clauses <= max_clauses
        # The static resolver must be doing real work on catalog tests.
        assert stats.order_pairs_static > 0
        assert stats.order_vars < stats.order_pairs

    def test_iriw_order_structure_is_tiny(self):
        """IRIW under Relaxed: 45 pairs collapse to a handful of live
        variables, yet totality still forbids the Fig. 2 outcome (checked
        functionally in tests/litmus)."""
        compiled = compiled_litmus(available_litmus_tests()["iriw-fenced"])
        encoded = encode_test(compiled, get_model("relaxed"), dense_order=False)
        assert encoded.stats.order_pairs == 45
        assert encoded.stats.order_vars <= 10
        assert encoded.stats.cnf_clauses <= 100

    def test_transitivity_never_exceeds_a_third_of_dense(self):
        """Two clauses per unordered triangle vs six per ordered triple:
        even a fully live support graph stays under dense/3."""
        compiled = _compiled_catalog("msn", "T0")
        model = get_model("relaxed")
        pruned = encode_test(compiled, model, dense_order=False)
        dense = encode_test(compiled, model, dense_order=True)
        assert pruned.stats.transitivity_clauses * 3 <= (
            dense.stats.transitivity_clauses
        )


class TestDenseVsPrunedDifferential:
    """Identical mined outcome sets across the litmus catalog x all models."""

    @pytest.mark.parametrize("model", MODELS)
    def test_litmus_catalog_outcome_sets_match(self, model):
        for name, litmus in available_litmus_tests().items():
            compiled = compiled_litmus(litmus)
            dense = _mine(encode_test(compiled, get_model(model),
                                      dense_order=True))
            pruned = _mine(encode_test(compiled, get_model(model),
                                       dense_order=False))
            assert dense == pruned, (
                f"{name} @ {model}: dense-only {sorted(dense - pruned)}, "
                f"pruned-only {sorted(pruned - dense)}"
            )

    def test_catalog_check_verdict_matches(self):
        """The inclusion check agrees on a known-failing cell:
        msn-unfenced/T0 fails Relaxed on both constructions."""
        compiled = _compiled_catalog("msn-unfenced", "T0")
        model = get_model("relaxed")
        spec = mine_specification(compiled)
        verdicts = {}
        for dense in (False, True):
            encoded = encode_test(compiled, model, dense_order=dense)
            assert encoded.stats.dense_order == dense
            outcome = run_inclusion_check(
                compiled, model, spec, encoded=encoded
            )
            verdicts[dense] = outcome.passed
        assert verdicts[False] == verdicts[True] == False  # noqa: E712

    def test_all_models_agree_on_catalog_checks(self):
        """Assertion and inclusion verdicts of msn/T0 match between the two
        constructions under every memory model."""
        compiled = _compiled_catalog("msn", "T0")
        spec = mine_specification(compiled)
        for model_name in available_models():
            model = get_model(model_name)
            verdicts = []
            for dense in (False, True):
                encoded = encode_test(compiled, model, dense_order=dense)
                assertion = run_assertion_check(
                    compiled, model, spec.labels, encoded=encoded
                )
                inclusion = run_inclusion_check(
                    compiled, model, spec, encoded=encoded
                )
                verdicts.append((assertion.passed, inclusion.passed))
            assert verdicts[0] == verdicts[1], model_name


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dense_and_pruned_outcome_sets_match_on_fuzz_programs(seed):
    """Property form over generated litmus programs: the dense reference
    construction and the pruned one mine identical outcome sets under sc
    and under relaxed (where every reordering axiom is live)."""
    program = generate_program(random.Random(seed))
    compiled = program.compile()
    for model in ("sc", "relaxed"):
        dense = _mine(encode_test(compiled, get_model(model),
                                  dense_order=True))
        pruned = _mine(encode_test(compiled, get_model(model)))
        assert dense == pruned, f"{program.spec()} @ {model}"


class TestStaticResolution:
    def _encoded(self, model_name, dense=False):
        compiled = compiled_litmus(
            available_litmus_tests()["message-passing"]
        )
        return encode_test(compiled, get_model(model_name), dense_order=dense)

    def test_preserved_program_order_is_constant(self):
        encoded = self._encoded("sc")
        order = encoded.order
        position = {a.index: i for i, a in enumerate(order.accesses)}
        for thread_encoding in encoded.threads:
            accesses = sorted(thread_encoding.accesses, key=lambda a: a.seq)
            for i, first in enumerate(accesses):
                for second in accesses[i + 1:]:
                    handle = order.order(
                        position[first.index], position[second.index]
                    )
                    assert handle == Circuit.TRUE

    def test_init_accesses_are_statically_first(self):
        # msn/T0 initializes the queue on the init thread.
        encoded = encode_test(
            _compiled_catalog("msn", "T0"), get_model("relaxed"),
            dense_order=False,
        )
        order = encoded.order
        position = {a.index: i for i, a in enumerate(order.accesses)}
        init = [a for a in order.accesses if a.thread == INIT_THREAD]
        rest = [a for a in order.accesses if a.thread != INIT_THREAD]
        assert init and rest
        for first in init:
            for second in rest:
                assert order.order(
                    position[first.index], position[second.index]
                ) == Circuit.TRUE
                # ... and the reverse direction folds to FALSE.
                assert order.order(
                    position[second.index], position[first.index]
                ) == Circuit.FALSE

    def test_dead_pairs_raise_and_resolve_to_none(self):
        # Two threads touching distinct locations with no fences: the
        # cross-thread pair is order-irrelevant.
        source = """
        int x;
        int y;
        void store_x() { x = 1; }
        void store_y() { y = 1; }
        """
        from repro.datatypes.spec import DataTypeImplementation, OperationSpec

        implementation = DataTypeImplementation(
            name="disjoint",
            description="two disjoint stores",
            source=source,
            operations={
                "sx": OperationSpec("sx", "store_x"),
                "sy": OperationSpec("sy", "store_y"),
            },
        )
        test = SymbolicTest(
            name="disjoint",
            threads=[[Invocation("sx")], [Invocation("sy")]],
        )
        encoded = encode_test(
            compile_test(implementation, test), get_model("relaxed"),
            dense_order=False,
        )
        order = encoded.order
        position = {a.index: i for i, a in enumerate(order.accesses)}
        non_init = [a for a in order.accesses if a.thread != INIT_THREAD]
        assert len(non_init) == 2
        i, j = (position[a.index] for a in non_init)
        assert order.resolved(i, j) is None
        with pytest.raises(KeyError):
            order.order(i, j)
        # Dense mode keeps a variable for the same pair.
        dense = encode_test(
            compile_test(implementation, test), get_model("relaxed"),
            dense_order=True,
        )
        positions = {
            a.index: k for k, a in enumerate(dense.order.accesses)
        }
        i, j = (positions[a.index] for a in dense.order.accesses
                if a.thread != INIT_THREAD)
        assert dense.order.resolved(i, j) is not None


class TestCounterexampleDecoding:
    def test_trace_is_a_linear_extension_of_the_model_order(self):
        """Every ordered fact the solver committed to is preserved by the
        topologically sorted trace."""
        from repro.core.checker import CheckFence, CheckOptions

        checker = CheckFence(
            get_implementation("msn-unfenced"), CheckOptions()
        )
        result = checker.check(get_test("queue", "T0"), "relaxed")
        assert not result.passed
        trace = result.counterexample
        assert trace is not None and trace.steps
        # Re-encode and re-solve to get a model + decoding we can inspect.
        compiled = checker.compile(get_test("queue", "T0"), "relaxed")
        encoded = encode_test(compiled, get_model("relaxed"),
                              dense_order=False)
        assert encoded.solve()
        model = encoded.model_values()
        decoded = encoded.decode_memory_order(model)
        position = {a.index: i for i, a in enumerate(encoded.order.accesses)}
        rank = {a.index: i for i, a in enumerate(decoded)}
        for x in decoded:
            for y in decoded:
                if x.index == y.index:
                    continue
                handle = encoded.order.resolved(
                    position[x.index], position[y.index]
                )
                if handle is None:
                    continue
                ordered_before = encoded.ctx.lowering.evaluate(handle, model)
                if ordered_before:
                    assert rank[x.index] < rank[y.index]

    def test_dense_and_pruned_traces_have_same_step_multiset(self):
        compiled = _compiled_catalog("msn-unfenced", "T0")
        model = get_model("relaxed")
        spec = mine_specification(compiled)
        labels = {}
        for dense in (False, True):
            outcome = run_inclusion_check(
                compiled, model, spec,
                encoded=encode_test(compiled, model, dense_order=dense),
            )
            assert not outcome.passed
            trace = outcome.counterexample
            labels[dense] = sorted(
                (step.kind, step.location) for step in trace.steps
            )
            # Positions are contiguous whatever the construction.
            assert [step.position for step in trace.steps] == list(
                range(len(trace.steps))
            )


def _fully_synced(encoded) -> bool:
    """The backend holds every clause: the sync cursor (a buffer offset
    and the clause count up to it) sits at the end of the CNF."""
    cnf = encoded.cnf
    return (encoded._synced_literals, encoded._synced_clauses) == (
        cnf.buffer_size, cnf.num_clauses
    )


class TestSolveSyncRegression:
    """EncodedTest.solve must never hand the backend an assumption literal
    whose defining clauses have not been synced (the assumption handles are
    lowered between two backend syncs)."""

    def _encoded(self):
        litmus = available_litmus_tests()["store-buffering"]
        return encode_test(
            compiled_litmus(litmus), get_model("serial"), dense_order=False
        )

    def test_fresh_composite_assumption_after_first_solve(self):
        encoded = self._encoded()
        assert encoded.solve() is True
        # Build a *new* composite node after the backend has synced: its
        # Tseitin clauses do not exist yet when solve() is entered.
        circuit = encoded.ctx.circuit
        handles = encoded.observation_equals((0, 1))
        both = circuit.and_many(handles)
        contradiction = circuit.and_(both, -handles[0])
        assert encoded.solve(assumptions=[contradiction]) is False
        # Every clause the lowering produced is in the backend.
        assert _fully_synced(encoded)
        # The formula itself is untouched by the failed assumption.
        assert encoded.solve() is True

    def test_backend_is_synced_before_and_after_lowering(self, monkeypatch):
        encoded = self._encoded()
        observed = []
        original = encoded.ctx.lowering.literal

        def recording_literal(handle):
            observed.append(_fully_synced(encoded))
            return original(handle)

        monkeypatch.setattr(encoded.ctx.lowering, "literal", recording_literal)
        handles = encoded.observation_equals((1, 0))
        composite = encoded.ctx.circuit.and_many(handles)
        assert encoded.solve(assumptions=[composite]) is True
        # The first lowering call ran against a fully synced backend...
        assert observed and observed[0] is True
        # ...and whatever it appended was synced again before solving.
        assert _fully_synced(encoded)
