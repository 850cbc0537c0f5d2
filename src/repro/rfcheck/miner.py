"""The rf-space miner: outcome sets by guided reads-from enumeration.

Where the SAT path mines outcomes by solve/decode/block and the enumerator
walks perform interleavings, this engine enumerates *reads-from
assignments*: one candidate source per load (a store, the forwarded own
store, or the initial value — :mod:`repro.rfcheck.relations`), checked for
consistency by the polynomial closure as the assignment grows, so
contradictory prefixes are pruned before they multiply.  Candidate sets are
already value-feasible by construction — a load can only return a value
some same-location store (or the location's initial value) supplies, which
is exactly the per-location pruning the trace layer's concrete addresses
make possible.

A consistent assignment determines the loads' values through the source
expressions: an acyclic value flow resolves by fixpoint substitution; a
cyclic residue (the out-of-thin-air shapes Relaxed admits — load-buffering
with copied values) is enumerated over the bounded domain and checked
against the equations, mirroring the enumerator's guess-and-verify.
Unbound free/init tokens are completed over their domains exactly like the
enumerator, so all three engines agree on the value semantics.

Budgets (trace steps, closure checks, value domains) degrade to an
``INCONCLUSIVE`` :class:`RfCheckResult`, never an exception or a wrong
verdict.  The miner does *not* produce final-memory images: the final store
of a location depends on the coherence order, which an rf assignment only
partially constrains — use the enumerator for final-memory queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.encoding.testprogram import CompiledTest
from repro.lsl.values import is_undef
from repro.memorymodel.base import MemoryModel, get_model
from repro.oracle.enumerator import INCONCLUSIVE, OK
from repro.oracle.trace import (
    AccessEvent,
    OracleUnsupported,
    ProgramTrace,
    Token,
    TraceLimitExceeded,
    Unresolved,
    eval_expr,
    expr_tokens,
    extract_traces,
)
from repro.rfcheck.closure import ClosureBudgetExceeded, Gas, OrderClosure
from repro.rfcheck.relations import RfCandidate, RfStructure, RfUnsupported


@dataclass
class RfCheckResult:
    """Outcome of one rf-space mining run.

    ``outcomes`` uses the same observation-vector slot order as the other
    two engines.  ``assignments`` counts complete rf assignments reached,
    ``checks`` the closure/value work spent (the ``max_checks`` budget).
    """

    status: str
    model: str
    outcomes: set[tuple[int, ...]] = field(default_factory=set)
    reason: str = ""
    traces: int = 0
    assignments: int = 0
    checks: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def allows(self, observation: tuple[int, ...]) -> bool:
        if not self.ok:
            raise RuntimeError(
                f"rf engine was inconclusive ({self.reason}); no verdict"
            )
        return tuple(observation) in self.outcomes


def rfcheck_outcomes(
    compiled: CompiledTest,
    model: MemoryModel | str,
    max_steps: int = 100_000,
    max_checks: int = 250_000,
    max_domain: int = 64,
) -> RfCheckResult:
    """Enumerate every outcome of ``compiled`` allowed by ``model`` via
    reads-from mining.

    Budgets: ``max_steps`` bounds trace extraction, ``max_checks`` bounds
    closure applications/splits and value completions, ``max_domain``
    bounds guessed-token domains.  Breaching any returns INCONCLUSIVE.
    """
    model = get_model(model)
    result = RfCheckResult(status=OK, model=model.name)
    try:
        traces = extract_traces(compiled, max_steps)
    except (OracleUnsupported, TraceLimitExceeded) as exc:
        result.status = INCONCLUSIVE
        result.reason = str(exc)
        return result
    result.traces = len(traces)
    gas = Gas(max_checks)
    try:
        for trace in traces:
            _TraceMiner(
                compiled, trace, model, gas, max_domain, result
            ).mine()
    except (RfUnsupported, OracleUnsupported, TraceLimitExceeded,
            ClosureBudgetExceeded) as exc:
        result.status = INCONCLUSIVE
        result.reason = str(exc)
    result.checks = gas.spent
    return result


def check_rf_assignment(
    structure: RfStructure,
    assignment: dict[int, RfCandidate | tuple[str, int | None]],
    gas: Gas | None = None,
) -> bool:
    """Decide whether one candidate reads-from assignment is consistent.

    ``assignment`` maps every load's ``eid`` to its source — an
    :class:`RfCandidate` or a ``(mode, store_eid)`` pair.  This is the
    per-assignment decision procedure underneath the miner, exposed for
    tests and spot checks.
    """
    gas = gas if gas is not None else Gas(100_000)
    closure = structure.base.clone()
    for load in structure.loads:
        want = assignment[load.eid]
        if isinstance(want, RfCandidate):
            want = (want.mode, want.store.eid if want.store else None)
        for cand, edges, clauses in structure.candidates(load):
            if (cand.mode, cand.store.eid if cand.store else None) == want:
                break
        else:
            return False  # statically pruned, or not a candidate at all
        for u, v in edges:
            if not closure.add_edge(u, v):
                return False
        for first, second in clauses:
            if not closure.add_clause(first, second):
                return False
    return closure.propagate() and closure.consistent(gas)


class _TraceMiner:
    """Depth-first rf enumeration over one trace."""

    def __init__(
        self,
        compiled: CompiledTest,
        trace: ProgramTrace,
        model: MemoryModel,
        gas: Gas,
        max_domain: int,
        result: RfCheckResult,
    ) -> None:
        self.compiled = compiled
        self.trace = trace
        self.model = model
        self.gas = gas
        self.max_domain = max_domain
        self.result = result
        width = max(compiled.ranges.width(), 1)
        self.mask = (1 << width) - 1
        self.domain_size = (
            1 << width if (1 << width) <= max_domain else None
        )
        self._init_tokens: dict[int, Token] = {}

    def mine(self) -> None:
        structure = RfStructure(self.trace, self.model)
        self.structure = structure
        self.cands = {
            load.eid: structure.candidates(load) for load in structure.loads
        }
        # Fewest candidates first: cheap fail-fast ordering.
        self.loads = sorted(
            structure.loads, key=lambda l: (len(self.cands[l.eid]), l.eid)
        )
        self.completion_tokens = self.trace.completion_tokens()
        self._dfs(0, structure.base.clone(), {})

    # ------------------------------------------------------------------ DFS

    def _dfs(
        self, index: int, closure: OrderClosure,
        chosen: dict[int, RfCandidate],
    ) -> None:
        if index == len(self.loads):
            self.result.assignments += 1
            if closure.clauses and not closure.consistent(self.gas):
                return
            self._emit(chosen)
            return
        load = self.loads[index]
        for cand, edges, clauses in self.cands[load.eid]:
            self.gas.spend()
            trial = closure.clone()
            ok = True
            for u, v in edges:
                if not trial.add_edge(u, v):
                    ok = False
                    break
            if ok:
                for first, second in clauses:
                    if not trial.add_clause(first, second):
                        ok = False
                        break
            if ok:
                self._dfs(index + 1, trial, {**chosen, load.eid: cand})

    # ----------------------------------------------------------- valuation

    def _emit(self, chosen: dict[int, RfCandidate]) -> None:
        """Resolve the loads' values under one consistent assignment."""
        bindings: dict = {}
        pending: list[tuple[Token, object]] = [
            (load.value, self._source_expr(load, chosen[load.eid]))
            for load in self.loads
        ]
        progress = True
        while pending and progress:
            progress = False
            remaining = []
            for token, expr in pending:
                try:
                    value = eval_expr(expr, bindings, self.mask)
                except Unresolved:
                    remaining.append((token, expr))
                    continue
                bindings[token] = value
                progress = True
            pending = remaining

        # Cyclic residue (out-of-thin-air value flow) and free tokens
        # feeding it: guess over the bounded domain, verify the equations.
        residual_tokens: list[Token] = []
        seen: set[Token] = set()
        for token, expr in pending:
            for blocked in expr_tokens(expr) | {token}:
                if blocked not in bindings and blocked not in seen:
                    seen.add(blocked)
                    residual_tokens.append(blocked)
        domains = [list(self._domain(t)) for t in residual_tokens]
        for combo in product(*domains) if domains else [()]:
            if residual_tokens:
                self.gas.spend()
            full = dict(bindings)
            full.update(zip(residual_tokens, combo))
            if all(
                eval_expr(expr, full, self.mask) == full[token]
                for token, expr in pending
            ):
                self._complete(full)

    def _complete(self, bindings: dict) -> None:
        """Enumerate still-unbound observation/constraint tokens, exactly
        like the enumerator's completion."""
        unbound = [t for t in self.completion_tokens if t not in bindings]
        domains = [list(self._domain(token)) for token in unbound]
        for values in product(*domains) if domains else [()]:
            self.gas.spend()
            full = {**bindings, **dict(zip(unbound, values))}
            if not all(
                eval_expr(constraint, full, self.mask)
                for constraint in self.trace.constraints
            ):
                continue
            outcome = tuple(
                eval_expr(expr, full, self.mask)
                for expr in self.trace.observations
            )
            self.result.outcomes.add(outcome)

    # ------------------------------------------------------------ plumbing

    def _source_expr(self, load: AccessEvent, cand: RfCandidate):
        if cand.store is not None:
            return cand.store.value
        return self._initial_expr(load.addr)

    def _initial_expr(self, location: int):
        """The initial value of a location, mirroring the enumerator and
        :meth:`repro.encoding.formula.EncodingContext.initial_value`."""
        info = self.compiled.layout.info(location)
        if not is_undef(info.initial):
            return int(info.initial) & self.mask
        if self.trace.policies.get(location, "havoc") == "zero":
            return 0
        token = self._init_tokens.get(location)
        if token is None:
            domain = self.compiled.ranges.location_domain(location)
            if domain is not None:
                valid = frozenset(v for v in domain if v <= self.mask)
                domain = valid or None
            token = Token(
                -location, "init", name=f"init_loc{location}", domain=domain
            )
            self._init_tokens[location] = token
        return token

    def _domain(self, token: Token):
        if token.domain is not None:
            return sorted(token.domain)
        if self.domain_size is None:
            raise RfUnsupported(
                f"guessing {token!r} needs a domain of 2^width > "
                f"{self.max_domain} values"
            )
        return range(self.domain_size)
