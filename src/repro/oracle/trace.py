"""Stage 1 of the operational oracle: per-thread symbolic trace extraction.

The enumerator (:mod:`repro.oracle.enumerator`) needs, for every thread of a
:class:`~repro.encoding.testprogram.CompiledTest`, the *flat sequence of
memory events* the thread issues: loads, stores and fences, in program
order, with concrete addresses.  This module extracts that sequence by
executing each thread's unrolled code with a small symbolic interpreter:

* register computations fold eagerly to concrete integers whenever their
  operands are concrete (the common case — addresses and constants);
* every load introduces a fresh *token*, an opaque placeholder whose value
  the enumerator decides when it places the load in the memory order;
* store values, ``assume`` conditions and observation registers become
  expressions over those tokens;
* ``choose`` statements fork the extraction, one trace per combination of
  choices (the paper draws unspecified test arguments from ``{0, 1}``).

The extractor deliberately supports only the *litmus-shaped* fragment of
LSL: control flow (``break``/``continue`` conditions) and addresses must be
concrete at extraction time.  A program outside the fragment — a data type
with loops branching on loaded values — raises :class:`OracleUnsupported`,
which the enumerator surfaces as an ``INCONCLUSIVE`` verdict instead of a
wrong answer.  This mirrors the scope split of the paper: litmus tests are
decidable by exhaustive enumeration (Section 2.3.3), full data types need
the SAT encoding (Section 3).

Arithmetic matches the *encoder's* bounded semantics (unsigned, modulo
``2^width`` with the width chosen by the range analysis), not the unbounded
serial interpreter — the point of the oracle is to differentially test the
encoding, so both sides must agree on the value domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.encoding.testprogram import CompiledTest
from repro.lsl.instructions import (
    Alloc,
    Assert,
    Assume,
    Atomic,
    Block,
    BreakIf,
    Call,
    Choose,
    ConstAssign,
    ContinueIf,
    Fence,
    FenceKind,
    Free,
    Load,
    Observe,
    PrimOp,
    PrimitiveOp,
    Statement,
    Store,
    iter_statements,
)
from repro.lsl.values import is_undef


class OracleUnsupported(Exception):
    """The program lies outside the fragment the oracle can enumerate."""


class TraceLimitExceeded(Exception):
    """Trace extraction exceeded its step budget (possible unbounded loop)."""


class _Infeasible(Exception):
    """An ``assume`` failed concretely: this choice path has no executions."""


class Token:
    """An opaque placeholder for a value the enumerator decides later.

    ``origin`` is ``"load"`` (bound when the load is placed in the memory
    order), ``"free"`` (an unconstrained value: an uninitialized register or
    an ``undef`` constant, matching the encoder's fresh bit-vectors) or
    ``"init"`` (the havoc'd initial value of a heap cell, shared by every
    load of that cell).  ``domain`` optionally restricts the values a
    non-load token may take (the encoder's location-domain constraint).
    """

    __slots__ = ("index", "origin", "domain", "name")

    def __init__(self, index: int, origin: str, name: str = "",
                 domain: frozenset[int] | None = None) -> None:
        self.index = index
        self.origin = origin
        self.domain = domain
        self.name = name

    def __repr__(self) -> str:
        return f"<{self.origin}:{self.name or self.index}>"


#: An expression: a concrete int, a Token, or ("prim", op, operand tuple).
Expr = object


class Unresolved(Exception):
    """Expression evaluation hit an unbound token."""

    def __init__(self, token: Token) -> None:
        super().__init__(repr(token))
        self.token = token


def eval_expr(expr: Expr, bindings: dict, mask: int) -> int:
    """Evaluate an expression under token bindings, modulo ``mask + 1``.

    Mirrors :class:`repro.encoding.symbolic.ThreadSymbolicExecutor`: unsigned
    fixed-width arithmetic (add/sub wrap), comparisons and boolean operators
    produce 0/1.  Raises :class:`Unresolved` on the first unbound token.
    """
    if isinstance(expr, int):
        return expr & mask
    if isinstance(expr, Token):
        try:
            return bindings[expr] & mask
        except KeyError:
            raise Unresolved(expr) from None
    _, op, args = expr
    values = [eval_expr(a, bindings, mask) for a in args]
    if op is PrimitiveOp.MOVE:
        return values[0]
    if op is PrimitiveOp.ADD:
        return (values[0] + values[1]) & mask
    if op is PrimitiveOp.SUB:
        return (values[0] - values[1]) & mask
    if op is PrimitiveOp.EQ:
        return int(values[0] == values[1])
    if op is PrimitiveOp.NE:
        return int(values[0] != values[1])
    if op is PrimitiveOp.LT:
        return int(values[0] < values[1])
    if op is PrimitiveOp.LE:
        return int(values[0] <= values[1])
    if op is PrimitiveOp.GT:
        return int(values[0] > values[1])
    if op is PrimitiveOp.GE:
        return int(values[0] >= values[1])
    if op is PrimitiveOp.AND:
        return int(bool(values[0]) and bool(values[1]))
    if op is PrimitiveOp.OR:
        return int(bool(values[0]) or bool(values[1]))
    if op is PrimitiveOp.NOT:
        return int(not values[0])
    raise TypeError(f"unknown primitive {op}")  # pragma: no cover


def expr_tokens(expr: Expr, out: set | None = None) -> set:
    """The set of tokens occurring in an expression."""
    if out is None:
        out = set()
    if isinstance(expr, Token):
        out.add(expr)
    elif isinstance(expr, tuple):
        for arg in expr[2]:
            expr_tokens(arg, out)
    return out


@dataclass
class AccessEvent:
    """One dynamic load or store of a trace, in thread program order."""

    eid: int                    # dense index within the trace
    thread: int
    seq: int                    # program-order position (shared with fences)
    kind: str                   # "load" | "store"
    addr: int                   # concrete location index
    value: Expr                 # Token for loads, arbitrary Expr for stores
    invocation: int             # global invocation index (seriality groups)
    atomic_group: int | None
    label: str

    @property
    def is_load(self) -> bool:
        return self.kind == "load"

    @property
    def is_store(self) -> bool:
        return self.kind == "store"


@dataclass
class FenceEvent:
    """A fence of a trace, positioned by ``seq`` between its thread's
    accesses (same counter as the access ``seq``)."""

    thread: int
    seq: int
    kind: FenceKind


@dataclass
class ProgramTrace:
    """One choice-resolved execution skeleton of a compiled test.

    Everything the enumerator needs: the access/fence events per thread,
    the path constraints (``assume`` conditions that must be non-zero), the
    observation expressions (one per observation slot, in the encoder's
    slot order), and the heap-cell initialization policies.
    """

    events: list[AccessEvent]
    fences: list[FenceEvent]
    constraints: list[Expr]
    observations: list[Expr]
    policies: dict[int, str]    # location -> "zero" | "havoc" | "undef"
    choices: tuple[int, ...]    # the Choose values taken on this path

    def completion_tokens(self) -> list[Token]:
        """Every token the observations and constraints mention, once each:
        the tokens an engine must range over freely when an execution
        completes without binding them."""
        tokens: dict[Token, None] = {}
        for expr in self.observations + self.constraints:
            tokens.update(dict.fromkeys(expr_tokens(expr)))
        return list(tokens)


class _ThreadState:
    __slots__ = ("thread", "regs", "seq", "atomic_stack")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.regs: dict[str, Expr] = {}
        self.seq = 0
        self.atomic_stack: list[int] = []


_NORMAL = ("normal", None)


class TraceExtractor:
    """Extracts every :class:`ProgramTrace` of a compiled test.

    One trace per combination of ``choose`` outcomes; paths whose
    assumptions fail concretely are dropped (they admit no executions).
    """

    def __init__(self, compiled: CompiledTest, max_steps: int = 100_000) -> None:
        self.compiled = compiled
        self.max_steps = max_steps
        self._mask_value = (1 << max(compiled.ranges.width(), 1)) - 1

    def traces(self) -> list[ProgramTrace]:
        found: list[ProgramTrace] = []
        #: Worklist of choice-index prefixes still to explore.
        stack: list[list[int]] = [[]]
        while stack:
            prefix = stack.pop()
            trace, taken, arities = self._run(prefix)
            # Fork on every choice point discovered beyond the prescribed
            # prefix (the run itself took alternative 0 there).
            for position in range(len(prefix), len(taken)):
                for alternative in range(1, arities[position]):
                    stack.append(taken[:position] + [alternative])
            if trace is not None:
                found.append(trace)
        return found

    # ------------------------------------------------------------- one path

    def _run(self, prescribed: list[int]):
        self._steps = 0
        self._token_counter = 0
        self._atomic_counter = 0
        self._event_counter = 0
        self._prescribed = prescribed
        self._taken: list[int] = []
        self._arities: list[int] = []
        self._choice_values: list[int] = []
        events: list[AccessEvent] = []
        fences: list[FenceEvent] = []
        constraints: list[Expr] = []
        policies: dict[int, str] = {}
        self._events = events
        self._fences = fences
        self._constraints = constraints
        self._policies = policies

        threads_by_index = self.compiled.threads()
        states: dict[int, _ThreadState] = {}
        try:
            for thread_index in sorted(threads_by_index):
                state = _ThreadState(thread_index)
                states[thread_index] = state
                for invocation in threads_by_index[thread_index]:
                    self._current_invocation = invocation.global_index
                    self._exec_body(invocation.statements, state)
        except _Infeasible:
            return None, self._taken, self._arities

        observations: list[Expr] = []
        for invocation in self.compiled.invocations:
            state = states[invocation.thread]
            for reg in invocation.observable_regs:
                observations.append(self._read(state, reg))
        trace = ProgramTrace(
            events=events,
            fences=fences,
            constraints=constraints,
            observations=observations,
            policies=policies,
            choices=tuple(self._choice_values),
        )
        return trace, self._taken, self._arities

    # ------------------------------------------------------------ execution

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise TraceLimitExceeded(
                f"trace extraction exceeded {self.max_steps} steps"
            )

    def _fresh_token(self, origin: str, name: str = "",
                     domain: frozenset[int] | None = None) -> Token:
        self._token_counter += 1
        return Token(self._token_counter, origin, name=name, domain=domain)

    def _read(self, state: _ThreadState, reg: str) -> Expr:
        value = state.regs.get(reg)
        if value is None:
            # Matches the encoder: an unassigned register is a fresh,
            # unconstrained value (created once and cached).
            value = self._fresh_token("free", name=f"uninit_{reg}")
            state.regs[reg] = value
        return value

    def _concrete(self, state: _ThreadState, reg: str, what: str) -> int:
        value = self._read(state, reg)
        try:
            return eval_expr(value, {}, self._mask())
        except Unresolved as exc:
            raise OracleUnsupported(
                f"{what} depends on {exc.token!r}; the oracle only "
                "enumerates programs whose control flow and addresses are "
                "concrete"
            ) from None

    def _mask(self) -> int:
        return self._mask_value

    def _exec_body(self, body, state: _ThreadState):
        for index, stmt in enumerate(body):
            signal = self._exec_stmt(stmt, state)
            if signal[0] != "normal":
                # The SAT encoding still emits the statements we are about
                # to skip, as accesses with (semantically false) guards.
                # That is equivalent only while no *memory event* is
                # skipped: a guard-false access can transitively force
                # orderings (via same-address or fence axioms) that the
                # trace cannot see.  Refuse the program instead.
                self._check_skipped(body[index + 1:])
                return signal
        return _NORMAL

    @staticmethod
    def _check_skipped(rest) -> None:
        for stmt in iter_statements(rest):
            if isinstance(stmt, (Load, Store, Fence)):
                raise OracleUnsupported(
                    "a taken break/continue skips memory operations; the "
                    "oracle only enumerates straight-line memory event "
                    "sequences"
                )

    def _exec_block(self, block: Block, state: _ThreadState):
        while True:
            self._tick()
            signal = self._exec_body(block.body, state)
            kind, tag = signal
            if kind == "continue" and tag == block.tag:
                continue
            if kind == "break" and tag == block.tag:
                return _NORMAL
            return signal

    def _exec_stmt(self, stmt: Statement, state: _ThreadState):
        self._tick()
        if isinstance(stmt, ConstAssign):
            if is_undef(stmt.value):
                state.regs[stmt.dst] = self._fresh_token(
                    "free", name=f"undef_{stmt.dst}"
                )
            else:
                state.regs[stmt.dst] = int(stmt.value) & self._mask()
        elif isinstance(stmt, PrimOp):
            state.regs[stmt.dst] = self._prim(stmt, state)
        elif isinstance(stmt, Load):
            self._load(stmt, state)
        elif isinstance(stmt, Store):
            self._store(stmt, state)
        elif isinstance(stmt, Fence):
            state.seq += 1
            self._fences.append(FenceEvent(state.thread, state.seq, stmt.kind))
        elif isinstance(stmt, Atomic):
            self._atomic_counter += 1
            state.atomic_stack.append(self._atomic_counter)
            try:
                return self._exec_body(stmt.body, state)
            finally:
                state.atomic_stack.pop()
        elif isinstance(stmt, Block):
            return self._exec_block(stmt, state)
        elif isinstance(stmt, BreakIf):
            if self._concrete(state, stmt.cond, "a break condition"):
                return ("break", stmt.tag)
        elif isinstance(stmt, ContinueIf):
            if self._concrete(state, stmt.cond, "a continue condition"):
                return ("continue", stmt.tag)
        elif isinstance(stmt, Assert):
            # Assertions are *checked*, not assumed, by the SAT encoding
            # (EncodedTest.assertions); they do not restrict which
            # observations are reachable, so the oracle ignores them too.
            pass
        elif isinstance(stmt, Assume):
            condition = self._read(state, stmt.cond)
            try:
                if not eval_expr(condition, {}, self._mask()):
                    raise _Infeasible()
            except Unresolved:
                self._constraints.append(condition)
        elif isinstance(stmt, Call):
            raise OracleUnsupported("calls must be inlined before enumeration")
        elif isinstance(stmt, Alloc):
            base = self.compiled.allocation.base_for(stmt)
            for offset in range(max(1, stmt.num_cells)):
                self._policies.setdefault(base + offset, stmt.init)
            state.regs[stmt.dst] = base
        elif isinstance(stmt, Choose):
            state.regs[stmt.dst] = self._choose(stmt)
        elif isinstance(stmt, (Free, Observe)):
            pass
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement {stmt!r}")
        return _NORMAL

    # ----------------------------------------------------------- statements

    def _choose(self, stmt: Choose) -> int:
        position = len(self._taken)
        index = (
            self._prescribed[position]
            if position < len(self._prescribed)
            else 0
        )
        self._taken.append(index)
        self._arities.append(len(stmt.choices))
        value = stmt.choices[index]
        self._choice_values.append(value)
        return value & self._mask()

    def _load(self, stmt: Load, state: _ThreadState) -> None:
        addr = self._concrete(state, stmt.addr, "a load address")
        self._check_address(addr, "load")
        token = self._fresh_token("load", name=stmt.dst)
        state.seq += 1
        self._event_counter += 1
        self._events.append(AccessEvent(
            eid=self._event_counter - 1,
            thread=state.thread,
            seq=state.seq,
            kind="load",
            addr=addr,
            value=token,
            invocation=self._current_invocation,
            atomic_group=state.atomic_stack[-1] if state.atomic_stack else None,
            label=f"t{state.thread}: {stmt.dst} = *{stmt.addr}",
        ))
        state.regs[stmt.dst] = token

    def _store(self, stmt: Store, state: _ThreadState) -> None:
        addr = self._concrete(state, stmt.addr, "a store address")
        self._check_address(addr, "store")
        value = self._read(state, stmt.src)
        state.seq += 1
        self._event_counter += 1
        self._events.append(AccessEvent(
            eid=self._event_counter - 1,
            thread=state.thread,
            seq=state.seq,
            kind="store",
            addr=addr,
            value=value,
            invocation=self._current_invocation,
            atomic_group=state.atomic_stack[-1] if state.atomic_stack else None,
            label=f"t{state.thread}: *{stmt.addr} = {stmt.src}",
        ))

    def _check_address(self, addr: int, what: str) -> None:
        if addr <= 0 or addr >= self.compiled.layout.num_locations:
            raise OracleUnsupported(
                f"{what} uses invalid location {addr} (null or out of range)"
            )

    def _prim(self, stmt: PrimOp, state: _ThreadState) -> Expr:
        operands = tuple(self._read(state, reg) for reg in stmt.args)
        expr: Expr = ("prim", stmt.op, operands)
        try:
            return eval_expr(expr, {}, self._mask())
        except Unresolved:
            return expr


#: Attribute under which a compiled test memoizes its extracted traces, a
#: ``max_steps -> traces or extraction error`` map.  Like the encoding
#: skeleton it lives and dies with the compiled test, and
#: ``CompiledTest.__getstate__`` drops it from pickles.
_TRACES_ATTR = "_oracle_traces"


def extract_traces(compiled: CompiledTest,
                   max_steps: int = 100_000) -> list[ProgramTrace]:
    """``TraceExtractor(compiled, max_steps).traces()``, extracted once per
    compiled test and step budget and shared by every engine and model.

    An extraction that raises :class:`OracleUnsupported` or
    :class:`TraceLimitExceeded` re-raises the same error on every call.
    Callers must treat the returned traces as read-only.
    """
    memo = compiled.__dict__.setdefault(_TRACES_ATTR, {})
    found = memo.get(max_steps)
    if found is None:
        try:
            found = TraceExtractor(compiled, max_steps=max_steps).traces()
        except (OracleUnsupported, TraceLimitExceeded) as exc:
            found = exc
        memo[max_steps] = found
    if isinstance(found, Exception):
        raise found.with_traceback(None)
    return found
