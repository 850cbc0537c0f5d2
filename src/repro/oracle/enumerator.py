"""Stage 2 of the operational oracle: exhaustive outcome enumeration.

This is an independent, *explicit-state* implementation of the memory-model
axioms of Section 2.3 — the same switches the SAT encoder
(:mod:`repro.encoding.memory`) turns into clauses, re-implemented as an
operational machine that never touches the SAT stack:

* the memory order ``<M`` is built incrementally: an execution is a
  sequence of *perform* steps, one per access, and the order in which
  accesses are performed *is* ``<M`` (a total order, exactly like the
  encoder's antisymmetric + transitive order variables);
* an access may perform only when every access that the model orders
  before it (preserved program order, the same-address store-order axiom,
  fences, atomic-block program order, "initialization happens first") has
  already performed;
* atomic blocks exclude other-thread accesses while partially performed,
  and under the Seriality model whole invocations do (the operation
  atomicity used to mine specifications);
* a performing load reads the *last* store to its address that already
  performed — unless store forwarding is on and a program-order-earlier
  store of its own thread is still pending in the store buffer, in which
  case it reads the newest such pending store (the ``<M``-maximal visible
  store of the paper's value axiom: pending stores perform later and are
  therefore ``<M``-greater than everything already performed);
* a store whose value expression mentions loads that have not yet
  performed (possible on Relaxed, where value dependencies are not
  ordered) *guesses* the value from the bounded domain; the guess is
  checked when the load finally performs, and mismatching branches are
  pruned.  This makes the enumerator complete for the encoder's
  out-of-thin-air executions (a load-buffering cycle with copied values)
  instead of silently missing them.

States reached by different interleavings but with the same performed set,
memory view and token bindings have the same futures, so they are memoised;
the search is exhaustive yet far below ``n!``.  The memo key packs the
three into one integer (performed-set bits, one memory slot per accessed
location, one binding slot per token) and is kept up to date as the search
steps, never rebuilt: a perform sets its bit, a store replaces its
location's slot, a new binding ORs in its token's slot (bindings are
append-only).  Most successors are memo hits, so each is checked against
the memo before any child dict is built or any constraint re-evaluated —
a visited key's bindings already passed every constraint, and bindings a
step leaves unchanged were checked at the parent.  ``nodes`` counts every
successor that passes the constraints, hits included; ``states`` counts
the distinct memoised states.

Everything that exceeds a budget (trace steps, explored states, value
domains) or falls outside the supported fragment yields an
``INCONCLUSIVE`` :class:`OracleResult` rather than an exception or a wrong
verdict — the differential harness skips those programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.core import limits
from repro.encoding.testprogram import INIT_THREAD, CompiledTest
from repro.lsl.values import is_undef
from repro.memorymodel.base import MemoryModel, get_model
from repro.oracle.trace import (
    AccessEvent,
    OracleUnsupported,
    ProgramTrace,
    Token,
    TraceLimitExceeded,
    Unresolved,
    eval_expr,
    extract_traces,
)

#: Verdict statuses.
OK = "ok"
INCONCLUSIVE = "inconclusive"


class _BudgetExceeded(Exception):
    pass


@dataclass
class OracleResult:
    """Outcome of one exhaustive enumeration.

    ``outcomes`` is the set of observation vectors (same slot order as
    :meth:`repro.encoding.formula.EncodedTest.decode_observation`) reachable
    under the model.  ``final_memories`` (if requested) collects the final
    memory image of every execution: a tuple of ``(location, value)`` pairs
    where ``value`` is ``None`` for an untouched havoc'd cell.
    """

    status: str
    model: str
    outcomes: set[tuple[int, ...]] = field(default_factory=set)
    final_memories: set[tuple[tuple[int, int | None], ...]] | None = None
    #: Per-location value domain of untouched havoc'd cells (``None`` image
    #: entries): ``None`` means the full ``value_mask`` range.  Only
    #: populated when final memories are recorded.
    final_domains: dict[int, frozenset[int] | None] = field(
        default_factory=dict
    )
    value_mask: int = 0
    reason: str = ""
    traces: int = 0
    #: Successors explored (memo hits included) and distinct memoised
    #: states; ``1 - states / nodes`` is the memo-hit ratio.
    nodes: int = 0
    states: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def allows(self, observation: tuple[int, ...]) -> bool:
        if not self.ok:
            raise RuntimeError(
                f"oracle was inconclusive ({self.reason}); no verdict"
            )
        return tuple(observation) in self.outcomes

    def allows_final_memory(self, wanted: dict[int, int]) -> bool:
        """Is there an execution whose final memory matches ``wanted``
        (a location -> value constraint on the interesting cells)?

        Default-initial-value semantics, pinned: a location a recorded
        execution never touched keeps its initial value — a concrete
        initial or zero policy is stored in the image directly; a havoc'd
        initial is stored as ``None`` and matches exactly the values of the
        location's havoc domain (every such value is realized by some
        execution).  Asking about a location that is not part of the image
        at all is a caller bug and raises ``KeyError`` instead of silently
        deciding either way.
        """
        if self.final_memories is None:
            raise RuntimeError("enumerated without record_final_memory=True")
        if not self.ok:
            raise RuntimeError(
                f"oracle was inconclusive ({self.reason}); no verdict"
            )
        for memory in self.final_memories:
            image = dict(memory)
            if all(
                self._final_value_matches(image, loc, value)
                for loc, value in wanted.items()
            ):
                return True
        return False

    def _final_value_matches(
        self, image: dict[int, int | None], location: int, value: int
    ) -> bool:
        if location not in image:
            raise KeyError(
                f"location {location} is not part of the final memory image"
            )
        current = image[location]
        if current is not None:
            return current == value
        # Untouched havoc'd cell: its final value is its unconstrained
        # initial value, free over the location's domain.
        domain = self.final_domains.get(location)
        if domain is None:
            return 0 <= value <= self.value_mask
        return value in domain


def enumerate_outcomes(
    compiled: CompiledTest,
    model: MemoryModel | str,
    max_steps: int = 100_000,
    max_nodes: int = 400_000,
    max_domain: int = 64,
    record_final_memory: bool = False,
) -> OracleResult:
    """Enumerate every outcome of ``compiled`` allowed by ``model``.

    Budgets: ``max_steps`` bounds trace extraction, ``max_nodes`` bounds
    explored enumeration states, ``max_domain`` bounds the value domain
    used when a token must be guessed (``2^width`` must fit).  Breaching
    any of them returns an ``INCONCLUSIVE`` result.
    """
    model = get_model(model)
    result = OracleResult(
        status=OK,
        model=model.name,
        final_memories=set() if record_final_memory else None,
    )
    try:
        traces = extract_traces(compiled, max_steps)
    except (OracleUnsupported, TraceLimitExceeded) as exc:
        result.status = INCONCLUSIVE
        result.reason = str(exc)
        return result
    result.traces = len(traces)
    enumerator = _Enumerator(
        compiled, model, max_nodes=max_nodes, max_domain=max_domain,
        record_final_memory=record_final_memory,
    )
    result.value_mask = enumerator.mask
    for trace in traces:
        try:
            enumerator.run(trace, result)
        except (OracleUnsupported, TraceLimitExceeded) as exc:
            result.status = INCONCLUSIVE
            result.reason = str(exc)
            break
        except _BudgetExceeded:
            result.status = INCONCLUSIVE
            result.reason = f"exceeded {max_nodes} enumeration states"
            break
    result.nodes = enumerator.nodes
    result.states = enumerator.states
    return result


class _Enumerator:
    """Depth-first enumeration of the memory orders of one trace.

    A search state is one integer with three packed fields: the
    performed-set bitmask (bit ``eid`` per event), the memory view (one
    ``stride``-bit slot per location the trace accesses) and the token
    bindings (one slot per token, assigned on first sight).  A slot holds
    ``value + 1`` so that absence (0) differs from a stored or bound 0.
    Every value is masked where it enters — :func:`eval_expr`,
    :meth:`_initial_value`, and the guess domains of :meth:`_domain` and
    :meth:`_havoc_domain` (``range(mask + 1)`` or filtered to ``<= mask``)
    — so ``value + 1`` always fits its slot and the key is canonical.
    """

    def __init__(
        self,
        compiled: CompiledTest,
        model: MemoryModel,
        max_nodes: int,
        max_domain: int,
        record_final_memory: bool,
    ) -> None:
        self.compiled = compiled
        self.model = model
        self.max_nodes = max_nodes
        self.max_domain = max_domain
        self.record_final_memory = record_final_memory
        self.nodes = 0
        self.states = 0
        width = max(compiled.ranges.width(), 1)
        self.mask = (1 << width) - 1
        self.stride = width + 1
        self.field = (1 << self.stride) - 1
        if (1 << width) > max_domain:
            # Guessed tokens range over the full bit-vector domain; refuse
            # rather than explode (or silently under-approximate).
            self.domain_size = None
        else:
            self.domain_size = 1 << width

    # -------------------------------------------------------------- per trace

    def run(self, trace: ProgramTrace, result: OracleResult) -> None:
        self.trace = trace
        self._result = result
        self._visited: set[int] = set()
        self._prepare_structure(trace)
        try:
            self._count()
            self._visited.add(0)
            self._expand(0, {})
        finally:
            self.states += len(self._visited)

    def _prepare_structure(self, trace: ProgramTrace) -> None:
        """Build the per-trace event table the DFS reads."""
        model = self.model
        events = trace.events
        by_thread: dict[int, list[AccessEvent]] = {}
        for event in events:
            by_thread.setdefault(event.thread, []).append(event)
        for members in by_thread.values():
            members.sort(key=lambda e: e.seq)

        preds: list[int] = [0] * len(events)  # predecessor bitmasks
        for members in by_thread.values():
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    ordered = (
                        first.thread == INIT_THREAD
                        or model.preserves(first.kind, second.kind)
                        or (
                            model.same_address_store_order
                            and second.is_store
                            and first.addr == second.addr
                        )
                        or (
                            first.atomic_group is not None
                            and first.atomic_group == second.atomic_group
                        )
                    )
                    if ordered:
                        preds[second.eid] |= 1 << first.eid
        for fence in trace.fences:
            members = by_thread.get(fence.thread, [])
            before = [
                e for e in members
                if e.seq < fence.seq and e.kind in fence.kind.orders_before
            ]
            after = [
                e for e in members
                if e.seq > fence.seq and e.kind in fence.kind.orders_after
            ]
            for second in after:
                for first in before:
                    preds[second.eid] |= 1 << first.eid

        #: thread / invocation / atomic-group member masks for the dynamic
        #: rules ("initialization happens first", atomic blocks, Seriality).
        self.full_mask = (1 << len(events)) - 1
        thread_masks: dict[int, int] = {}
        invocation_masks: dict[int, int] = {}
        group_masks: dict[int, tuple[int, int]] = {}  # gid -> (mask, thread)
        for event in events:
            bit = 1 << event.eid
            thread_masks[event.thread] = thread_masks.get(event.thread, 0) | bit
            invocation_masks[event.invocation] = (
                invocation_masks.get(event.invocation, 0) | bit
            )
            if event.atomic_group is not None:
                mask, _ = group_masks.get(event.atomic_group, (0, event.thread))
                group_masks[event.atomic_group] = (mask | bit, event.thread)
        self.init_mask = thread_masks.get(INIT_THREAD, 0)
        self.group_masks = [
            (mask, thread_masks[thread]) for mask, thread in group_masks.values()
        ]
        self.invocation_masks = (
            list(invocation_masks.values())
            if model.operation_atomicity else []
        )

        #: Key layout: performed-set bits first, then one memory slot per
        #: accessed location, then binding slots handed out on first sight.
        stride = self.stride
        self._loc_shift: dict[int, int] = {}
        for event in events:
            if event.addr not in self._loc_shift:
                self._loc_shift[event.addr] = (
                    len(events) + len(self._loc_shift) * stride
                )
        self._next_shift = len(events) + len(self._loc_shift) * stride
        self._token_shift: dict[Token, int] = {}
        self._init_tokens: dict[int, Token] = {}

        self._completion_tokens = trace.completion_tokens()

        #: The event table: ``(bit, preds, row)`` in event order, where
        #: ``row`` holds what performing the event needs.  A store's row is
        #: ``(True, slot shift, clear mask, constant value or None, value
        #: expr)``; a load's is ``(False, slot shift, token, token shift,
        #: forwarding sources, initial value)``, the forwarding sources
        #: (program-order-earlier same-thread same-address stores, newest
        #: first) as ``(bit, constant value or None, value expr)``.
        rows = []
        for event in events:
            shift = self._loc_shift[event.addr]
            if event.is_store:
                row = (
                    True, shift, ~(self.field << shift),
                    self._constant(event.value), event.value,
                )
            else:
                forward = ()
                if model.store_forwarding:
                    candidates = [
                        s for s in by_thread[event.thread]
                        if s.is_store and s.seq < event.seq
                        and s.addr == event.addr
                    ]
                    if len(candidates) > 1 and not model.same_address_store_order:
                        raise OracleUnsupported(
                            "store forwarding without the same-address "
                            "store-order axiom is ambiguous; not supported"
                        )
                    candidates.sort(key=lambda s: s.seq, reverse=True)
                    forward = tuple(
                        (1 << s.eid, self._constant(s.value), s.value)
                        for s in candidates
                    )
                row = (
                    False, shift, event.value, self._slot(event.value),
                    forward, self._initial_value(event.addr),
                )
            rows.append((1 << event.eid, preds[event.eid], row))
        self.rows = rows
        self._constraints = trace.constraints

    def _constant(self, expr) -> int | None:
        return expr & self.mask if isinstance(expr, int) else None

    def _slot(self, token: Token) -> int:
        shift = self._token_shift.get(token)
        if shift is None:
            shift = self._next_shift
            self._next_shift += self.stride
            self._token_shift[token] = shift
        return shift

    def _bits(self, new) -> int:
        """The key bits of freshly bound ``(token, value)`` pairs."""
        bits = 0
        for token, value in new:
            bits |= (value + 1) << self._slot(token)
        return bits

    # ------------------------------------------------------------------- DFS

    def _count(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _BudgetExceeded()
        if not self.nodes & 1023:
            limits.check_deadline()

    def _expand(self, state: int, bindings: dict) -> None:
        """Perform each enabled event from a new state."""
        full = self.full_mask
        mask = state & full
        if mask == full:
            self._complete(state, bindings)
            return
        pending = full ^ mask
        enabled = pending
        if self.init_mask & pending:
            enabled &= self.init_mask
        for gmask, tmask in self.group_masks:
            if gmask & mask and gmask & pending:
                # An open atomic block excludes other threads' accesses.
                enabled &= tmask
        for imask in self.invocation_masks:
            if imask & mask and imask & pending:
                enabled &= imask
                break

        visited = self._visited
        field = self.field
        for bit, preds, row in self.rows:
            if not enabled & bit or preds & pending:
                continue
            performed = state | bit
            if row[0]:
                _, shift, clear, constant, expr = row
                performed &= clear
                if constant is not None:
                    child = performed | (constant + 1) << shift
                    if child in visited:
                        self._count()
                    else:
                        self._enter(child, bindings, ())
                    continue
                for value, new in self._resolve(expr, bindings):
                    child = performed | (value + 1) << shift
                    if new:
                        child |= self._bits(new)
                    if child in visited:
                        self._count()
                    else:
                        self._enter(child, bindings, new)
                continue

            # A load: find the <M-maximal visible store (paper's value axiom).
            _, shift, token, token_shift, forward, initial = row
            for source_bit, constant, expr in forward:
                if not state & source_bit:
                    # Store-queue forwarding: the newest pending program-
                    # order-earlier store is visible and performs later than
                    # everything already performed, so it is the <M-maximal
                    # visible store.
                    variants = (
                        ((constant, ()),) if constant is not None
                        else self._resolve(expr, bindings)
                    )
                    break
            else:
                stored = (state >> shift) & field
                if stored:
                    variants = ((stored - 1, ()),)
                elif initial.__class__ is int:
                    variants = ((initial, ()),)
                else:
                    variants = self._initial_variants(initial, bindings)
            bound = bindings.get(token)
            for value, new in variants:
                child = performed | self._bits(new) if new else performed
                if bound is None:
                    child |= (value + 1) << token_shift
                elif bound != value:
                    continue  # a guessed value turned out wrong: prune
                if child in visited:
                    self._count()
                elif bound is None:
                    self._enter(child, bindings, new + ((token, value),))
                else:
                    self._enter(child, bindings, new)

    def _enter(self, state: int, bindings: dict, new) -> None:
        """Visit a successor not yet memoised.  Only freshly bound tokens
        can falsify a constraint: the parent's bindings already passed."""
        if new:
            bindings = {**bindings, **dict(new)}
            if self._constraints and not self._constraints_hold(bindings):
                return
        self._count()
        self._visited.add(state)
        self._expand(state, bindings)

    # -------------------------------------------------------------- plumbing

    def _havoc_domain(self, location: int) -> frozenset[int] | None:
        """The value domain of a havoc'd location's initial value, or
        ``None`` for the full machine-word range."""
        domain = self.compiled.ranges.location_domain(location)
        if domain is not None:
            valid = frozenset(v for v in domain if v <= self.mask)
            domain = valid or None
        return domain

    def _domain(self, token: Token) -> range | list[int]:
        if token.domain is not None:
            return sorted(token.domain)
        if self.domain_size is None:
            raise OracleUnsupported(
                f"guessing {token!r} needs a domain of 2^width > "
                f"{self.max_domain} values"
            )
        return range(self.domain_size)

    def _resolve(self, expr, bindings: dict) -> list[tuple[int, tuple]]:
        """All ``(value, new bindings)`` completions of an expression,
        guessing unbound tokens over the bounded domain.  Guesses are bound
        in ``bindings`` only while the expression is evaluated."""
        try:
            return [(eval_expr(expr, bindings, self.mask), ())]
        except Unresolved as exc:
            token = exc.token
        out = []
        try:
            for guess in self._domain(token):
                bindings[token] = guess
                for value, new in self._resolve(expr, bindings):
                    out.append((value, ((token, guess),) + new))
        finally:
            bindings.pop(token, None)
        return out

    def _initial_value(self, location: int) -> int | Token:
        """The initial value of a location — concrete, or the token of a
        havoc'd cell — mirroring
        :meth:`repro.encoding.formula.EncodingContext.initial_value`."""
        info = self.compiled.layout.info(location)
        if not is_undef(info.initial):
            return int(info.initial) & self.mask
        if self.trace.policies.get(location, "havoc") == "zero":
            return 0
        token = self._init_tokens.get(location)
        if token is None:
            token = Token(
                -location, "init", name=f"init_loc{location}",
                domain=self._havoc_domain(location),
            )
            self._init_tokens[location] = token
        return token

    def _initial_variants(self, token: Token, bindings: dict):
        if token in bindings:
            return ((bindings[token], ()),)
        return [(value, ((token, value),)) for value in self._domain(token)]

    def _constraints_hold(self, bindings: dict) -> bool:
        """Check every path constraint that is now evaluable."""
        for constraint in self._constraints:
            try:
                if not eval_expr(constraint, bindings, self.mask):
                    return False
            except Unresolved:
                continue
        return True

    # ------------------------------------------------------------ completion

    def _complete(self, state: int, bindings: dict) -> None:
        # Any tokens still unbound (free values never forced by a load, or
        # havoc'd initials only visible through observations) range over
        # their full domains — same as the encoder's unconstrained fresh
        # bit-vectors.
        unbound = [t for t in self._completion_tokens if t not in bindings]
        domains = [list(self._domain(token)) for token in unbound]
        for values in product(*domains) if domains else [()]:
            full = {**bindings, **dict(zip(unbound, values))}
            if not self._constraints_hold(full):
                continue
            outcome = tuple(
                eval_expr(expr, full, self.mask)
                for expr in self.trace.observations
            )
            self._result.outcomes.add(outcome)
            if self._result.final_memories is not None:
                self._result.final_memories.add(
                    self._final_memory(state, full)
                )

    def _final_memory(self, state: int,
                      bindings: dict) -> tuple[tuple[int, int | None], ...]:
        image = []
        layout = self.compiled.layout
        for location in layout.valid_indices():
            shift = self._loc_shift.get(location)
            stored = (state >> shift) & self.field if shift is not None else 0
            if stored:
                image.append((location, stored - 1))
                continue
            info = layout.info(location)
            if not is_undef(info.initial):
                image.append((location, int(info.initial) & self.mask))
                continue
            if self.trace.policies.get(location, "havoc") == "zero":
                image.append((location, 0))
                continue
            token = self._init_tokens.get(location)
            value = bindings.get(token) if token is not None else None
            if value is None:
                # Record what the unconstrained initial may range over, so
                # allows_final_memory can match None entries exactly.
                self._result.final_domains[location] = (
                    self._havoc_domain(location)
                )
            image.append((location, value))
        return tuple(image)
