"""Unit tests for the operational enumerator itself (no SAT side)."""

import pickle

import pytest
from test_corpus import CORPUS

from repro.analysis.allocation import build_layout, resolve_allocations
from repro.analysis.ranges import RangeAnalysis
from repro.core import limits
from repro.datatypes.spec import DataTypeImplementation, OperationSpec
from repro.encoding.testprogram import CompiledInvocation, CompiledTest
from repro.fuzz import FuzzProgram
from repro.lsl.instructions import (
    Block,
    BreakIf,
    ConstAssign,
    ContinueIf,
    Load,
    Store,
)
from repro.lsl.program import GlobalDecl, Invocation, Procedure, Program, SymbolicTest
from repro.memorymodel.base import get_model
from repro.oracle import INCONCLUSIVE, OK, enumerate_outcomes
from repro.oracle.enumerator import _Enumerator
from repro.oracle.trace import (
    Token,
    TraceExtractor,
    TraceLimitExceeded,
    extract_traces,
)
from repro.rfcheck import rfcheck_outcomes

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

#: Load buffering with copied values (out-of-thin-air on Relaxed) and store
#: buffering: the two node counts pinned below.
LB_SPEC = "r0=x y=r0 | r1=y x=r1"
SB_SPEC = "x=1 r0=y | y=1 r1=x"

#: The frozen-corpus program with the most Relaxed enumeration nodes.
LARGEST_SPEC = "r0=y x=1 r1=x | y=1 x=2 r0=y r1=y | y=2 f(ss) r0=x"


def outcomes(spec: str, model: str) -> set:
    result = enumerate_outcomes(FuzzProgram.parse(spec).compile(), model)
    assert result.status == OK, result.reason
    return result.outcomes


def compile_statements(threads, ret_regs=()):
    """A minimal CompiledTest over one global ``x`` from raw statements
    (for shapes the fuzz DSL cannot express: loops, branches)."""
    program = Program(name="raw")
    program.add_global(GlobalDecl(name="x", initial=0))
    layout = build_layout(program)
    invocations = []
    for index, statements in enumerate(threads):
        name = f"t{index}"
        regs = list(ret_regs[index]) if index < len(ret_regs) else []
        program.add_procedure(
            Procedure(name=name, params=(), returns=tuple(regs),
                      body=list(statements))
        )
        invocations.append(CompiledInvocation(
            thread=index, position=0, global_index=index, label=name,
            operation=OperationSpec(name=name, proc=name,
                                    has_return=bool(regs)),
            statements=list(statements),
            arg_regs=[], out_regs=[], ret_regs=regs,
        ))
    bodies = [inv.statements for inv in invocations]
    allocation = resolve_allocations(bodies, layout)
    return CompiledTest(
        implementation=DataTypeImplementation(
            name="raw", description="", source="", operations={},
            init_operation=None, reference=None,
        ),
        test=SymbolicTest(
            name="raw", threads=[[Invocation(f"t{i}")]
                                 for i in range(len(threads))],
        ),
        program=program,
        invocations=invocations,
        layout=layout,
        allocation=allocation,
        ranges=RangeAnalysis(layout, allocation).analyze(bodies),
        loop_bounds={},
    )


class TestModelSeparation:
    def test_store_buffering_separates_sc_from_tso(self):
        spec = "x=1 r0=y | y=1 r1=x"
        assert (0, 0) not in outcomes(spec, "sc")
        assert (0, 0) in outcomes(spec, "tso")

    def test_store_load_fence_restores_sc(self):
        spec = "x=1 f(sl) r0=y | y=1 f(sl) r1=x"
        assert outcomes(spec, "relaxed") == outcomes(spec, "sc")

    def test_seriality_shrinks_sc(self):
        # Under atomic operations each whole thread runs without
        # interleaving, so one thread must see the other's store.
        spec = "x=1 r0=y | y=1 r1=x"
        serial = outcomes(spec, "serial")
        assert serial < outcomes(spec, "sc")
        assert serial == {(0, 1), (1, 0)}

    def test_store_forwarding_reads_own_buffer(self):
        # The load must see the thread's own earlier store, whether it is
        # still buffered or already performed.
        assert outcomes("x=1 r0=x", "tso") == {(1,)}
        assert outcomes("x=1 r0=x", "relaxed") == {(1,)}

    def test_same_address_store_order_protects_po_load(self):
        # load-then-store to one address: axiom 1 orders the load first,
        # and forwarding never applies to a later store.
        assert outcomes("r0=x x=1", "relaxed") == {(0,)}

    def test_thin_air_values_on_relaxed(self):
        # The load-buffering cycle with copied values: the encoding leaves
        # value dependencies unordered, so any width-bounded value can
        # circulate.  The enumerator's guess-and-check must find them all.
        spec = "r0=x y=r0 | r1=y x=r1"
        assert outcomes(spec, "sc") == {(0, 0)}
        assert outcomes(spec, "relaxed") == {(v, v) for v in range(4)}


class TestInconclusiveSurfacing:
    def test_step_limit_is_inconclusive_not_a_crash(self):
        # An unbounded loop (possible in hand-built LSL) must surface as
        # INCONCLUSIVE via the step budget.
        loop = Block(tag="L", body=[
            ConstAssign("one", 1),
            ContinueIf(cond="one", tag="L"),
        ])
        compiled = compile_statements([[loop]])
        result = enumerate_outcomes(compiled, "sc", max_steps=100)
        assert result.status == INCONCLUSIVE
        assert "steps" in result.reason

    def test_control_flow_on_loaded_value_is_inconclusive(self):
        branch = Block(tag="L", body=[
            ConstAssign("addr", 1),
            Load(dst="r", addr="addr"),
            BreakIf(cond="r", tag="L"),
            ConstAssign("c", 1),
            Store(addr="addr", src="c"),
        ])
        compiled = compile_statements([[branch]])
        result = enumerate_outcomes(compiled, "relaxed")
        assert result.status == INCONCLUSIVE
        assert "concrete" in result.reason

    def test_taken_break_skipping_accesses_is_inconclusive(self):
        skip = Block(tag="L", body=[
            ConstAssign("one", 1),
            BreakIf(cond="one", tag="L"),
            ConstAssign("addr", 1),
            Store(addr="addr", src="one"),
        ])
        compiled = compile_statements([[skip]])
        result = enumerate_outcomes(compiled, "relaxed")
        assert result.status == INCONCLUSIVE
        assert "skips memory operations" in result.reason

    def test_node_budget_is_inconclusive(self):
        compiled = FuzzProgram.parse("x=1 r0=y | y=1 r1=x").compile()
        result = enumerate_outcomes(compiled, "relaxed", max_nodes=3)
        assert result.status == INCONCLUSIVE
        assert "states" in result.reason

    def test_inconclusive_result_refuses_verdicts(self):
        compiled = FuzzProgram.parse("x=1 r0=y").compile()
        result = enumerate_outcomes(compiled, "relaxed", max_nodes=1)
        assert result.status == INCONCLUSIVE
        with pytest.raises(RuntimeError):
            result.allows((0,))


class TestNodeAccounting:
    """``nodes`` counts every successor that passes the constraints, memo
    hits included; ``states`` counts the distinct memoised states.  Both
    are properties of the explored state graph, so a faster search must
    reproduce them exactly."""

    #: Frozen-corpus node totals per model.
    CORPUS_NODES = {
        "serial": 585, "sc": 3734, "tso": 7080, "pso": 8192,
        "relaxed": 26983,
    }

    @pytest.mark.parametrize("model", MODELS)
    def test_corpus_node_totals(self, model):
        total = 0
        for spec in CORPUS:
            result = enumerate_outcomes(FuzzProgram.parse(spec).compile(), model)
            assert result.ok, result.reason
            assert 0 < result.states <= result.nodes
            total += result.nodes
        assert total == self.CORPUS_NODES[model]

    def test_load_buffering_nodes_and_outcomes(self):
        result = enumerate_outcomes(FuzzProgram.parse(LB_SPEC).compile(),
                                    "relaxed")
        assert result.ok
        assert (result.nodes, result.states) == (111, 64)
        assert result.outcomes == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_store_buffering_nodes(self):
        result = enumerate_outcomes(FuzzProgram.parse(SB_SPEC).compile(),
                                    "relaxed")
        assert result.ok
        assert (result.nodes, result.states) == (41, 25)

    def test_node_budget_boundary(self):
        compiled = FuzzProgram.parse(LB_SPEC).compile()
        assert enumerate_outcomes(compiled, "relaxed", max_nodes=111).ok
        result = enumerate_outcomes(compiled, "relaxed", max_nodes=110)
        assert result.status == INCONCLUSIVE
        assert result.nodes == 111


class TestValueDomains:
    def test_havoc_domain_drops_values_above_the_mask(self, monkeypatch):
        compiled = FuzzProgram.parse(SB_SPEC).compile()
        enumerator = _Enumerator(
            compiled, get_model("relaxed"), max_nodes=100, max_domain=64,
            record_final_memory=False,
        )
        mask = enumerator.mask
        monkeypatch.setattr(
            compiled.ranges, "location_domain",
            lambda location: {0, mask, mask + 1},
        )
        assert enumerator._havoc_domain(1) == frozenset({0, mask})
        monkeypatch.setattr(
            compiled.ranges, "location_domain", lambda location: {mask + 1}
        )
        # Nothing valid left: the full machine-word range.
        assert enumerator._havoc_domain(1) is None


class TestDeadline:
    """An expired deadline stops a long search at its next poll."""

    def test_enumerator_raises_timeout(self):
        compiled = FuzzProgram.parse(LARGEST_SPEC).compile()
        # A corpus program with more nodes than one poll interval, so the
        # search reaches a poll.
        assert LARGEST_SPEC in CORPUS
        assert enumerate_outcomes(compiled, "relaxed").nodes > 1024
        with limits.deadline_scope(limits.Deadline(timeout_seconds=0.0)):
            with pytest.raises(limits.TimeoutExceeded):
                enumerate_outcomes(compiled, "relaxed")

    def test_rfcheck_raises_timeout(self):
        compiled = FuzzProgram.parse(LARGEST_SPEC).compile()
        with limits.deadline_scope(limits.Deadline(timeout_seconds=0.0)):
            with pytest.raises(limits.TimeoutExceeded):
                rfcheck_outcomes(compiled, "relaxed")


def _canonical(expr):
    """An expression with tokens replaced by their identifying fields
    (tokens compare by identity, so two extractions never share one)."""
    if isinstance(expr, Token):
        domain = sorted(expr.domain) if expr.domain is not None else None
        return ("token", expr.index, expr.origin, expr.name, domain)
    if isinstance(expr, tuple):
        return ("prim", expr[1], tuple(_canonical(arg) for arg in expr[2]))
    return expr


def _canonical_trace(trace):
    return (
        [
            (e.eid, e.thread, e.seq, e.kind, e.addr, _canonical(e.value),
             e.invocation, e.atomic_group, e.label)
            for e in trace.events
        ],
        [(f.thread, f.seq, f.kind) for f in trace.fences],
        [_canonical(c) for c in trace.constraints],
        [_canonical(o) for o in trace.observations],
        dict(trace.policies),
        trace.choices,
    )


class TestTraceMemo:
    def test_traces_are_extracted_once_per_step_budget(self):
        compiled = FuzzProgram.parse(SB_SPEC).compile()
        traces = extract_traces(compiled)
        assert extract_traces(compiled) is traces
        assert extract_traces(compiled, max_steps=500) is not traces

    def test_extraction_errors_are_memoised(self):
        compiled = FuzzProgram.parse(SB_SPEC).compile()
        result = enumerate_outcomes(compiled, "sc", max_steps=1)
        assert result.status == INCONCLUSIVE
        assert "steps" in result.reason
        rf = rfcheck_outcomes(compiled, "sc", max_steps=1)
        assert rf.reason == result.reason
        memo = compiled.__dict__["_oracle_traces"]
        assert isinstance(memo[1], TraceLimitExceeded)

    def test_memo_is_dropped_on_pickling(self):
        compiled = FuzzProgram.parse(SB_SPEC).compile()
        extract_traces(compiled)
        clone = pickle.loads(pickle.dumps(compiled))
        assert "_oracle_traces" not in clone.__dict__
        assert enumerate_outcomes(clone, "tso").outcomes == \
            enumerate_outcomes(compiled, "tso").outcomes

    def test_engines_never_mutate_the_shared_traces(self):
        for spec in CORPUS:
            compiled = FuzzProgram.parse(spec).compile()
            for model in MODELS:
                assert enumerate_outcomes(
                    compiled, model, record_final_memory=True
                ).ok
                assert rfcheck_outcomes(compiled, model).ok
            cached = extract_traces(compiled)
            fresh = TraceExtractor(compiled).traces()
            assert [_canonical_trace(t) for t in cached] == \
                [_canonical_trace(t) for t in fresh], spec
