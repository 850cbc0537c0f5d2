"""The memory-model formula ``Theta`` (Section 3.2.1).

Given the per-thread symbolic encodings, this module introduces the memory
order variables ``Mxy`` (with antisymmetry by sharing the variable and
transitivity by explicit clauses), and asserts

* the program-order axioms of the chosen memory model,
* the fence and atomic-block ordering rules,
* "initialization happens first" for the init thread,
* the value axioms (via the ``Init_l`` / ``Flows_{s,l}`` style construction
  described in the paper), and
* for the Seriality model, the operation-atomicity constraints used to mine
  the specification.

Two constructions are available:

**Pruned (default).**  A *static order resolver* first decides every pair
whose direction is forced unconditionally — preserved program order,
init-first, atomic-block-internal order, always-executed fences, constant
same-address store pairs — and takes the transitive closure.
:meth:`MemoryOrderEncoding.order` constant-folds those pairs to
``TRUE``/``FALSE`` instead of minting a variable plus a unit clause.  Order
variables are minted only for pairs that can influence outcomes: pairs
queried by the value axioms (a load and its may-alias candidate stores, and
those stores among each other), by conditional fence/same-address/atomic/
seriality constraints, plus the *fill* pairs produced by triangulating the
resulting constraint graph (min-degree elimination).  Transitivity is
asserted as two no-3-cycle clauses per elimination triangle, with statically
known edges folded into binary implications; triangulating the support
graph makes the triangle constraints equivalent to full transitivity (every
cycle in a chordal graph has a chord, so acyclic triangles imply an acyclic
— hence linearizable — order).  Pairs that appear in no constraint get no
variable at all; counterexample decoding topologically sorts the remaining
partial order (:meth:`repro.encoding.formula.EncodedTest
.decode_memory_order`).

**Dense (reference).**  The original construction — one variable for every
pair and the full O(n^3) transitivity axiom — is kept as
``MemoryModelEncoder(dense=True)``, reached only through
``encode_test(..., dense_order=True)``.  No product path builds it: the
differential tests and ``benchmarks/bench_encoding_size.py`` use it to prove
the pruned construction produces identical outcome sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations

from repro.encoding.symbolic import MemoryAccess, ThreadEncoding
from repro.encoding.testprogram import INIT_THREAD
from repro.memorymodel.base import MemoryModel
from repro.sat.circuit import Circuit


@dataclass
class MemoryOrderEncoding:
    """The order relation, for the axioms and for decoding counterexamples.

    A pair of accesses is in exactly one of three states:

    * **statically resolved** (``static_pairs``): the direction is forced by
      the model regardless of the solver's choices; :meth:`order` returns
      the constant ``TRUE``/``FALSE`` handle.
    * **live** (``order_vars``): a SAT variable decides the direction.
    * **dead** (neither): no constraint ever mentions the pair; it has no
      variable, and :meth:`order` raises.  :meth:`resolved` returns ``None``
      so decoders can treat the pair as unordered.

    Under the dense construction every pair is live.
    """

    accesses: list[MemoryAccess]
    order_vars: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Statically resolved pairs, keyed ``(i, j)`` with ``i < j``; the value
    #: is ``True`` when ``accesses[i] <M accesses[j]``.
    static_pairs: dict[tuple[int, int], bool] = field(default_factory=dict)

    def order(self, first: int, second: int) -> int:
        """Circuit handle for ``access[first] <M access[second]``."""
        handle = self.resolved(first, second)
        if handle is None:
            raise KeyError(
                f"no order constraint between accesses {first} and {second} "
                "(the pruned encoding proved the pair order-irrelevant)"
            )
        return handle

    def resolved(self, first: int, second: int) -> int | None:
        """Like :meth:`order`, but ``None`` for dead pairs."""
        if first == second:
            raise ValueError("an access is never ordered before itself")
        forward = first < second
        key = (first, second) if forward else (second, first)
        static = self.static_pairs.get(key)
        if static is not None:
            return Circuit.TRUE if static == forward else Circuit.FALSE
        var = self.order_vars.get(key)
        if var is None:
            return None
        return var if forward else -var


class MemoryModelEncoder:
    """Builds ``Theta`` for one memory model."""

    def __init__(
        self,
        context,
        model: MemoryModel,
        threads: list[ThreadEncoding],
        dense: bool = False,
    ) -> None:
        self.ctx = context
        self.model = model
        self.threads = threads
        self.dense = dense
        #: Memo of the enumerations several axioms walk (fence pairs,
        #: atomic groups, exclusion triples, invocation group pairs).
        self._streams: dict = {}
        accesses = sorted(
            (a for t in threads for a in t.accesses), key=lambda a: a.index
        )
        # Re-index accesses densely (their global indices may have gaps
        # if other structures were encoded in between).
        position = {a.index: i for i, a in enumerate(accesses)}
        alias_sets: dict[int, frozenset | None] = {
            a.index: (
                frozenset(a.addr_candidates)
                if a.addr_candidates is not None
                else None
            )
            for a in accesses
        }
        by_thread = {
            t.thread: sorted(t.accesses, key=lambda a: a.seq)
            for t in threads
        }
        same_thread_pairs = [
            (first, second)
            for thread_accesses in by_thread.values()
            for i, first in enumerate(thread_accesses)
            for second in thread_accesses[i + 1:]
        ]
        self.accesses = accesses
        self._position = position
        self._alias_sets = alias_sets
        self._by_thread = by_thread
        self._same_thread_pair_list = same_thread_pairs
        self.encoding = MemoryOrderEncoding(accesses=self.accesses)
        #: Candidate stores per load (visibility-pruned under the pruned
        #: construction), filled by :meth:`_compute_value_candidates`.
        self._value_candidates: list[tuple[MemoryAccess, list[MemoryAccess]]] = []
        #: Handle of every resolvable pair, doubly keyed by global access
        #: index; built by :meth:`_build_order_handle_map` after variable
        #: creation.
        self._order_handles: dict[tuple[int, int], int] = {}
        # Size counters surfaced through EncodingStatistics.
        self.transitivity_clause_count = 0

    # --------------------------------------------------------------- public

    def encode(self) -> MemoryOrderEncoding:
        self._compute_value_candidates()
        if self.dense:
            self._create_order_variables()
            self._assert_transitivity()
        else:
            self._resolve_static_orders()
            self._prune_value_candidates()
            self._create_live_order_variables()
        self._build_order_handle_map()
        self._assert_program_order()
        self._assert_same_address_order()
        self._assert_fences()
        self._assert_atomic_blocks()
        self._assert_init_first()
        if self.model.operation_atomicity:
            self._assert_operation_atomicity()
        self._assert_value_axioms()
        return self.encoding

    # ----------------------------------------------------------- statistics

    @property
    def order_pair_count(self) -> int:
        n = len(self.accesses)
        return n * (n - 1) // 2

    @property
    def order_var_count(self) -> int:
        return len(self.encoding.order_vars)

    @property
    def static_pair_count(self) -> int:
        return len(self.encoding.static_pairs)

    # ------------------------------------------------------ dense structure

    def _create_order_variables(self) -> None:
        circuit = self.ctx.circuit
        n = len(self.accesses)
        for i in range(n):
            for j in range(i + 1, n):
                self.encoding.order_vars[(i, j)] = circuit.var(f"M[{i},{j}]")

    def _assert_transitivity(self) -> None:
        n = len(self.accesses)
        assert_clause = self.ctx.assert_clause
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                order_ij = self._order(i, j)
                for k in range(n):
                    if k == i or k == j:
                        continue
                    # i <M j and j <M k implies i <M k
                    assert_clause([-order_ij, -self._order(j, k), self._order(i, k)])
                    self.transitivity_clause_count += 1

    # ----------------------------------------------------- static resolution

    def _resolve_static_orders(self) -> None:
        """Precompute every unconditionally ordered pair and its closure.

        Static edges always point from the init thread into the others and,
        within a thread, from lower to higher ``seq``, so sorting by
        ``(non-init, thread, seq)`` is a topological order and the closure
        is one reverse sweep over bitmask reachability sets.
        """
        n = len(self.accesses)
        position = self._position
        # The edge set splits into a model-independent *core* — init-thread
        # order, atomic-block-internal order, always-executed fences, and
        # constant same-address store pairs (conditional only on the
        # model's same-address axiom being on, which is part of the cache
        # key) — plus the model's preserved program-order pairs.  Edges are
        # idempotent under ``|=``, so unioning the core with the preserves
        # pass yields exactly the edge set one combined walk would produce.
        core = [0] * n

        def add_edge(first: MemoryAccess, second: MemoryAccess) -> None:
            core[position[first.index]] |= 1 << position[second.index]

        circuit_true = self.ctx.circuit.TRUE
        for first, second in self._same_thread_pairs():
            if first.thread == INIT_THREAD:
                add_edge(first, second)
            elif (
                first.atomic_group is not None
                and first.atomic_group == second.atomic_group
            ):
                add_edge(first, second)
            elif self._same_address_static_edge(first, second):
                # Axiom 1 with a constant address comparison: the guard
                # of the implication is always true, so the order is
                # forced.
                add_edge(first, second)
        for first, second, guard in self._fence_pairs():
            if guard == circuit_true:
                add_edge(first, second)
        init_accesses = [a for a in self.accesses if a.thread == INIT_THREAD]
        others = [a for a in self.accesses if a.thread != INIT_THREAD]
        for first in init_accesses:
            for second in others:
                add_edge(first, second)

        successors = list(core)
        preserves = self.model.preserves
        for first, second in self._same_thread_pairs():
            if first.thread != INIT_THREAD and preserves(
                first.kind, second.kind
            ):
                successors[position[first.index]] |= (
                    1 << position[second.index]
                )

        topo = sorted(
            range(n),
            key=lambda p: (
                self.accesses[p].thread != INIT_THREAD,
                self.accesses[p].thread,
                self.accesses[p].seq,
                p,
            ),
        )
        reach = [0] * n
        for p in reversed(topo):
            result = successors[p]
            pending = successors[p]
            while pending:
                low = pending & -pending
                result |= reach[low.bit_length() - 1]
                pending ^= low
            reach[p] = result

        static = self.encoding.static_pairs
        for i in range(n):
            mask = reach[i]
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                mask ^= low
                if i < j:
                    static[(i, j)] = True
                else:
                    static[(j, i)] = False

    # ------------------------------------------------- conflict restriction

    def _create_live_order_variables(self) -> None:
        """Mint variables only for pairs that can influence outcomes, then
        assert pruned transitivity over the triangulated support graph."""
        seeds = self._seed_pairs()
        init_positions = {
            self._position[a.index]
            for a in self.accesses
            if a.thread == INIT_THREAD
        }
        triangles = self._triangulate(seeds, init_positions)
        # Order variables are minted unnamed: no decoder reads them back by
        # name, and the f-string plus two name-table inserts per variable
        # were a measurable slice of the per-model layer.  The dense
        # (debugging) construction keeps its names.
        var = self.ctx.circuit.var
        order_vars = self.encoding.order_vars
        for key in sorted(seeds):
            order_vars[key] = var()
        self._assert_transitivity_pruned(triangles)

    def _seed_pairs(self) -> set[tuple[int, int]]:
        """Every non-static pair some constraint will mention."""
        seeds: set[tuple[int, int]] = set()
        position = self._position
        resolved = self.encoding.resolved

        def need(first: MemoryAccess, second: MemoryAccess) -> None:
            i, j = position[first.index], position[second.index]
            key = (i, j) if i < j else (j, i)
            if key not in self.encoding.static_pairs:
                seeds.add(key)

        circuit = self.ctx.circuit
        for first, second in self._same_address_pairs():
            need(first, second)
        for first, second, guard in self._fence_pairs():
            if guard != circuit.TRUE and guard != circuit.FALSE:
                if not self.model.preserves(first.kind, second.kind):
                    need(first, second)
        for first, second, other in self._atomic_exclusion_triples():
            first_other = resolved(
                position[first.index], position[other.index]
            )
            other_second = resolved(
                position[other.index], position[second.index]
            )
            # The clause (not first<other) or (not other<second) is
            # trivially true when either order is statically impossible.
            if first_other == circuit.FALSE or other_second == circuit.FALSE:
                continue
            if first_other is None:
                need(first, other)
            if other_second is None:
                need(other, second)
        if self.model.operation_atomicity:
            for group_a, group_b in self._invocation_group_pairs():
                for x in group_a:
                    for y in group_b:
                        need(x, y)
        for load, candidates in self._value_candidates:
            for store in candidates:
                if not self._forwarded(store, load):
                    need(store, load)
            for first, second in combinations(candidates, 2):
                need(first, second)
        return seeds

    def _triangulate(
        self,
        seeds: set[tuple[int, int]],
        excluded: set[int],
    ) -> list[tuple[int, int, int]]:
        """Chordalize the support graph by min-degree elimination.

        The support graph has an edge for every live or static pair between
        non-init accesses (init accesses have only outgoing static edges, so
        no cycle passes through them).  Fill edges discovered during
        elimination become live pairs (added to ``seeds``); the returned
        elimination triangles are exactly the triples over which no-3-cycle
        clauses must be asserted to make every orientation extendable to a
        total order.
        """
        n = len(self.accesses)
        vertices = [p for p in range(n) if p not in excluded]
        # Adjacency as one bitmask per vertex: membership tests, edge
        # updates and degree counts (popcount) all beat set operations in
        # this loop, and iterating set bits in ascending order gives the
        # sorted neighbor walk the fill computation needs for determinism.
        adjacency = [0] * n
        allowed = 0
        for p in vertices:
            allowed |= 1 << p
        for pairs in (seeds, self.encoding.static_pairs):
            for i, j in pairs:
                if (allowed >> i) & 1 and (allowed >> j) & 1:
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i

        triangles: list[tuple[int, int, int]] = []
        static_pairs = self.encoding.static_pairs
        append = triangles.append
        alive = set(vertices)
        # Lazy min-degree heap: entries go stale when a neighbor's degree
        # changes, so each pop re-checks the recorded degree, and touched
        # neighbors are re-entered with their settled degree — the pop
        # order matches an eager min-scan exactly.  Scanning `alive` for
        # the minimum on every round was quadratic in the vertex count and
        # showed up in layer profiles.
        heap = [(adjacency[p].bit_count(), p) for p in vertices]
        heapq.heapify(heap)
        push = heapq.heappush
        while alive:
            degree, vertex = heapq.heappop(heap)
            if vertex not in alive:
                continue
            mask = adjacency[vertex]
            current = mask.bit_count()
            if current != degree:
                push(heap, (current, vertex))
                continue
            alive.discard(vertex)
            neighbors = []
            while mask:
                low = mask & -mask
                neighbors.append(low.bit_length() - 1)
                mask ^= low
            vertex_bit = 1 << vertex
            for index, a in enumerate(neighbors):
                adjacency[a] &= ~vertex_bit
                a_bit = 1 << a
                for b in neighbors[index + 1:]:
                    append((vertex, a, b))
                    b_bit = 1 << b
                    if not adjacency[a] & b_bit:
                        adjacency[a] |= b_bit
                        adjacency[b] |= a_bit
                        # a < b by construction (ascending bit order).
                        if (a, b) not in static_pairs:
                            seeds.add((a, b))
            adjacency[vertex] = 0
            for a in neighbors:
                push(heap, (adjacency[a].bit_count(), a))
        return triangles

    def _assert_transitivity_pruned(
        self, triangles: list[tuple[int, int, int]]
    ) -> None:
        """Forbid both cyclic orientations of every elimination triangle.

        Statically resolved edges fold away: a triangle with a known edge
        degenerates to one binary implication, and a triangle whose cycle is
        already statically impossible emits nothing.

        This is the hottest loop of the per-model layer (hundreds of
        thousands of triangles on the larger tests), so every support-graph
        edge is resolved to its SAT literal (or static truth value) exactly
        once up front and the clauses go through the trusted CNF path — the
        three literals of a triangle clause are distinct order variables by
        construction, so no per-clause normalization is needed.
        """
        # ``i*n + j`` in *both* orientations -> True/False when statically
        # resolved, else the SAT literal of "i <M j".  A flat list indexed
        # arithmetically beats a tuple-keyed dict in the triangle loop;
        # booleans and literals share the slots: literals always have
        # |lit| >= 2 (variable 1 is the lowering's constant), so identity
        # checks against True/False are unambiguous.
        n_acc = len(self.accesses)
        edges: list = [None] * (n_acc * n_acc)
        for (i, j), forced in self.encoding.static_pairs.items():
            edges[i * n_acc + j] = forced
            edges[j * n_acc + i] = not forced
        order_vars = self.encoding.order_vars
        lits = self.ctx.lowering.var_literals(order_vars.values())
        for (i, j), lit in zip(order_vars, lits):
            edges[i * n_acc + j] = lit
            edges[j * n_acc + i] = -lit
        # Clauses are batched into flat buffers and installed in one go;
        # `append` is bound once — this loop dominates layer time on the
        # larger tests.
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        count = 0
        for v, a, b in triangles:
            row = v * n_acc
            e1 = edges[row + a]  # v <M a
            e2 = edges[a * n_acc + b]  # a <M b
            e3 = edges[row + b]  # v <M b
            # cycle v -> a -> b -> v: not(e1 and e2 and not e3)
            if not (e1 is False or e2 is False or e3 is True):
                n = 0
                if e1 is not True:
                    push(-e1)
                    n += 1
                if e2 is not True:
                    push(-e2)
                    n += 1
                if e3 is not False:
                    push(e3)
                    n += 1
                push_len(n)
                count += 1
            # cycle v -> b -> a -> v: not(e3 and not e2 and not e1)
            if not (e3 is False or e2 is True or e1 is True):
                n = 0
                if e3 is not True:
                    push(-e3)
                    n += 1
                if e2 is not False:
                    push(e2)
                    n += 1
                if e1 is not False:
                    push(e1)
                    n += 1
                push_len(n)
                count += 1
        self.ctx.lowering.cnf.add_clauses_trusted_flat(buf, lengths)
        self.transitivity_clause_count += count

    # ---------------------------------------------------------- pair streams

    def _order(self, i: int, j: int) -> int:
        return self.encoding.order(i, j)

    def _build_order_handle_map(self) -> None:
        """Resolve every live/static pair to its handle once, keyed by
        global access index in both orientations, so the axiom emitters
        (the value axioms in particular call :meth:`_order_of` once per
        candidate-store pair) skip the position lookup and the per-call
        key normalization of :meth:`MemoryOrderEncoding.resolved`."""
        accesses = self.accesses
        handles: dict[tuple[int, int], int] = {}
        for (i, j), forced in self.encoding.static_pairs.items():
            xi, xj = accesses[i].index, accesses[j].index
            if forced:
                handles[(xi, xj)] = Circuit.TRUE
                handles[(xj, xi)] = Circuit.FALSE
            else:
                handles[(xi, xj)] = Circuit.FALSE
                handles[(xj, xi)] = Circuit.TRUE
        for (i, j), var in self.encoding.order_vars.items():
            xi, xj = accesses[i].index, accesses[j].index
            handles[(xi, xj)] = var
            handles[(xj, xi)] = -var
        self._order_handles = handles

    def _same_thread_pairs(self):
        """(earlier, later) pairs of accesses of the same thread, memoized
        (several axioms walk the list per model)."""
        return self._same_thread_pair_list

    def _same_address_static_edge(
        self, first: MemoryAccess, second: MemoryAccess
    ) -> bool:
        """Same-address store order with a *constant* address comparison —
        the static half of axiom 1 (the symbolic half is emitted by
        :meth:`_assert_same_address_order`)."""
        return (
            self.model.same_address_store_order
            and second.is_store
            and self._may_alias(first, second)
            and self._addr_eq(first, second) == self.ctx.circuit.TRUE
        )

    def _same_address_pairs(self):
        """Pairs the same-address store-order axiom constrains with a
        *symbolic* address comparison (constant comparisons are static or
        vacuous)."""
        if not self.model.same_address_store_order:
            return
        circuit = self.ctx.circuit
        for first, second in self._same_thread_pairs():
            if not second.is_store:
                continue
            if first.thread == INIT_THREAD:
                continue  # already totally ordered
            if self.model.preserves(first.kind, second.kind):
                continue  # already ordered unconditionally
            if not self._may_alias(first, second):
                continue
            addr_eq = self._addr_eq(first, second)
            if addr_eq == circuit.FALSE:
                continue  # can never be the same address
            if addr_eq == circuit.TRUE and not self.dense:
                continue  # statically resolved instead
            yield first, second

    def _fence_pairs(self) -> list[tuple[MemoryAccess, MemoryAccess, int]]:
        """(before, after, guard) for every fence-ordered pair, materialized
        once per test (the pruned construction walks the list three times
        per model: static resolution, seeding, assertion)."""
        pairs = self._streams.get("fence_pairs")
        if pairs is None:
            pairs = list(self._enumerate_fence_pairs())
            self._streams["fence_pairs"] = pairs
        return pairs

    def _enumerate_fence_pairs(self):
        circuit = self.ctx.circuit
        for thread in self.threads:
            if not thread.fences:
                continue
            accesses = self._by_thread[thread.thread]
            for fence in thread.fences:
                if fence.guard == circuit.FALSE:
                    continue
                before = [
                    a for a in accesses
                    if a.seq < fence.seq and a.kind in fence.kind.orders_before
                ]
                after = [
                    a for a in accesses
                    if a.seq > fence.seq and a.kind in fence.kind.orders_after
                ]
                for first in before:
                    for second in after:
                        yield first, second, fence.guard

    def _atomic_groups(self) -> list[list[MemoryAccess]]:
        groups_list = self._streams.get("atomic_groups")
        if groups_list is None:
            groups: dict[int, list[MemoryAccess]] = {}
            # Iterating threads in seq order keeps every group seq-sorted
            # without re-sorting (atomic blocks never span threads).
            for accesses in self._by_thread.values():
                for access in accesses:
                    if access.atomic_group is not None:
                        groups.setdefault(access.atomic_group, []).append(access)
            groups_list = list(groups.values())
            self._streams["atomic_groups"] = groups_list
        return groups_list

    def _atomic_exclusion_triples(self):
        """(first, second, other) triples for atomic non-interleaving: no
        ``other`` of a different thread lands between two block members.
        Materialized once per test — the triple count is quadratic in block
        size times the outside accesses, and both the seeder and the
        assertion pass walk it for every model."""
        triples = self._streams.get("exclusion_triples")
        if triples is None:
            triples = []
            for members in self._atomic_groups():
                thread = members[0].thread
                outside = [a for a in self.accesses if a.thread != thread]
                for i, first in enumerate(members):
                    for second in members[i + 1:]:
                        for other in outside:
                            triples.append((first, second, other))
            self._streams["exclusion_triples"] = triples
        return triples

    def _invocation_group_pairs(self):
        """(accesses of invocation A, accesses of invocation B) for every
        unordered pair of invocations (Seriality)."""
        pairs = self._streams.get("invocation_group_pairs")
        if pairs is None:
            by_invocation: dict[int, list[MemoryAccess]] = {}
            for access in self.accesses:
                by_invocation.setdefault(access.invocation, []).append(access)
            invocations = sorted(by_invocation)
            pairs = [
                (by_invocation[first_inv], by_invocation[second_inv])
                for index, first_inv in enumerate(invocations)
                for second_inv in invocations[index + 1:]
            ]
            self._streams["invocation_group_pairs"] = pairs
        return pairs

    # ------------------------------------------------------------ the axioms

    def _assert_program_order(self) -> None:
        circuit_true = self.ctx.circuit.TRUE
        for first, second in self._same_thread_pairs():
            enforce = (
                first.thread == INIT_THREAD
                or self.model.preserves(first.kind, second.kind)
            )
            if enforce:
                handle = self._order_of(first, second)
                if handle != circuit_true:  # statically resolved otherwise
                    self.ctx.assert_true(handle)

    def _assert_same_address_order(self) -> None:
        # addr_eq -> ordered, asserted as one clause directly (routing it
        # through an implies() node would Tseitin-lower an OR gate per pair
        # just to assert its output true).
        circuit = self.ctx.circuit
        for first, second in self._same_address_pairs():
            handle = self._order_of(first, second)
            if handle == circuit.TRUE:
                continue
            self.ctx.assert_clause(
                [-self._addr_eq(first, second), handle]
            )

    def _assert_fences(self) -> None:
        circuit = self.ctx.circuit
        for first, second, guard in self._fence_pairs():
            if self.model.preserves(first.kind, second.kind):
                continue
            handle = self._order_of(first, second)
            if handle == circuit.TRUE:
                continue  # statically resolved (always-executed fence)
            self.ctx.assert_clause([-guard, handle])

    def _assert_atomic_blocks(self) -> None:
        circuit_true = self.ctx.circuit.TRUE
        # (a) program order inside the atomic block
        for members in self._atomic_groups():
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    handle = self._order_of(first, second)
                    if handle != circuit_true:
                        self.ctx.assert_true(handle)
        # (b) no access of another thread interleaves with the block.  The
        # triple count is the layer's largest clause source after
        # transitivity, so handles come straight from the prebuilt map (a
        # pair whose order is statically impossible was never seeded, so a
        # missing entry means the clause is vacuous), literals are memoized
        # locally (the same order variables recur across triples), and the
        # clauses go out through the trusted bulk path — at most two
        # distinct order literals each, so no normalization is needed.
        handles = self._order_handles
        literal = self.ctx.lowering.literal
        true_handle = Circuit.TRUE
        false_handle = Circuit.FALSE
        lit_of: dict[int, int] = {}
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        for first, second, other in self._atomic_exclusion_triples():
            first_other = handles.get((first.index, other.index))
            other_second = handles.get((other.index, second.index))
            if first_other == false_handle or other_second == false_handle:
                continue  # one of the two orders is statically impossible
            count = 0
            if first_other != true_handle:
                lit = lit_of.get(first_other)
                if lit is None:
                    lit = literal(first_other)
                    lit_of[first_other] = lit
                push(-lit)
                count += 1
            if other_second != true_handle:
                lit = lit_of.get(other_second)
                if lit is None:
                    lit = literal(other_second)
                    lit_of[other_second] = lit
                push(-lit)
                count += 1
            # count == 0 (both orders statically forced) appends the empty
            # clause, marking the formula unsatisfiable exactly as the
            # generic path did.
            push_len(count)
        if lengths:
            self.ctx.lowering.cnf.add_clauses_trusted_flat(buf, lengths)

    def _assert_init_first(self) -> None:
        circuit_true = self.ctx.circuit.TRUE
        init_accesses = [a for a in self.accesses if a.thread == INIT_THREAD]
        others = [a for a in self.accesses if a.thread != INIT_THREAD]
        for first in init_accesses:
            for second in others:
                handle = self._order_of(first, second)
                if handle != circuit_true:  # statically resolved otherwise
                    self.ctx.assert_true(handle)

    def _assert_operation_atomicity(self) -> None:
        """Seriality: accesses of different invocations never interleave.

        ``order <-> OP`` goes out as two clauses directly; a static pair
        degenerates to a unit constraint on the OP variable (an ``iff()``
        node would Tseitin-lower an XOR cone per access pair just to assert
        its output).  Clauses are batched through the trusted path — every
        clause pairs the OP literal with a distinct order literal.
        """
        circuit = self.ctx.circuit
        literal = self.ctx.lowering.literal
        handles = self._order_handles
        true_handle = Circuit.TRUE
        false_handle = Circuit.FALSE
        lit_of: dict[int, int] = {}
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        for group_a, group_b in self._invocation_group_pairs():
            first_inv = group_a[0].invocation
            second_inv = group_b[0].invocation
            op_lit = literal(circuit.var(f"OP[{first_inv},{second_inv}]"))
            for x in group_a:
                x_index = x.index
                for y in group_b:
                    handle = handles[(x_index, y.index)]
                    if handle == true_handle:
                        push(op_lit)
                        push_len(1)
                    elif handle == false_handle:
                        push(-op_lit)
                        push_len(1)
                    else:
                        lit = lit_of.get(handle)
                        if lit is None:
                            lit = literal(handle)
                            lit_of[handle] = lit
                        push(-lit)
                        push(op_lit)
                        push_len(2)
                        push(lit)
                        push(-op_lit)
                        push_len(2)
        if lengths:
            self.ctx.lowering.cnf.add_clauses_trusted_flat(buf, lengths)

    # ---------------------------------------------------------- value axioms

    def _compute_value_candidates(self) -> None:
        """Candidate stores per load, grouped by location up front.

        Stores are indexed by their (frozen) alias sets once; each load then
        gathers the stores of its own candidate locations instead of testing
        every (load, store) pair.  Under the pruned construction, stores
        whose visibility is statically impossible (ordered after the load
        with no forwarding) are dropped here, before any term is built.
        """
        stores = [a for a in self.accesses if a.is_store]
        by_location: dict[int, list[MemoryAccess]] = {}
        wildcard: list[MemoryAccess] = []
        for store in stores:
            alias = self._alias_sets[store.index]
            if alias is None:
                wildcard.append(store)
            else:
                for location in alias:
                    by_location.setdefault(location, []).append(store)
        for load in self.accesses:
            if not load.is_load:
                continue
            alias = self._alias_sets[load.index]
            if alias is None:
                candidates = list(stores)
            else:
                merged: dict[int, MemoryAccess] = {
                    s.index: s for s in wildcard
                }
                for location in alias:
                    for store in by_location.get(location, ()):
                        merged[store.index] = store
                candidates = [merged[index] for index in sorted(merged)]
            self._value_candidates.append((load, candidates))

    def _prune_value_candidates(self) -> None:
        """Drop statically invisible stores from every candidate list (the
        store is ordered after the load and forwarding does not apply).
        Runs once, right after static resolution, so the seeder and the
        value-axiom emitter consume the exact same lists."""
        self._value_candidates = [
            (load, [s for s in candidates if self._visible(s, load)])
            for load, candidates in self._value_candidates
        ]

    def _visible(self, store: MemoryAccess, load: MemoryAccess) -> bool:
        """Can this store possibly be visible to the load?  False only when
        the static resolver ordered the store after the load and store
        forwarding does not apply."""
        if self._forwarded(store, load):
            return True
        handle = self.encoding.resolved(
            self._position[store.index], self._position[load.index]
        )
        return handle != self.ctx.circuit.FALSE

    def _assert_value_axioms(self) -> None:
        # The hottest axiom of the per-model layer: quadratic in the
        # candidate stores of every load.  Bind the circuit constructors
        # once and read order handles straight from the prebuilt map
        # (:meth:`_order_of` and :meth:`_visibility_order` per pair were
        # measured to cost as much as the term construction itself).
        circuit = self.ctx.circuit
        and_ = circuit.and_
        and_many = circuit.and_many
        addr_eq = self.ctx.addr_eq
        value_eq = self.ctx.value_eq
        handles = self._order_handles
        true_handle = Circuit.TRUE
        forwarding = self.model.store_forwarding
        for load, candidates in self._value_candidates:
            load_index = load.index
            visibility: list[int] = []
            for store in candidates:
                if (
                    forwarding
                    and store.thread == load.thread
                    and store.seq < load.seq
                ):
                    order = true_handle
                else:
                    order = handles[(store.index, load_index)]
                visibility.append(
                    and_(store.guard, addr_eq(load, store), order)
                )
            # Case 1: no visible store -> the load reads the initial value.
            no_store = and_many([-v for v in visibility])
            terms = [and_(no_store, self._initial_value_term(load))]
            # Case 2: the load reads the <M-maximal visible store.
            count = len(candidates)
            for i in range(count):
                store = candidates[i]
                store_index = store.index
                is_maximal = and_many(
                    [
                        -and_(visibility[j], handles[(store_index, candidates[j].index)])
                        for j in range(count)
                        if j != i
                    ]
                )
                terms.append(
                    and_(visibility[i], is_maximal, value_eq(load, store))
                )
            self.ctx.assert_clause([-load.guard, circuit.or_many(terms)])

    def _forwarded(self, store: MemoryAccess, load: MemoryAccess) -> bool:
        """Store-queue forwarding: a program-order-earlier store of the
        load's own thread is visible regardless of the global order."""
        return (
            self.model.store_forwarding
            and store.thread == load.thread
            and store.seq < load.seq
        )

    def _visibility_order(self, store: MemoryAccess, load: MemoryAccess) -> int:
        """The ordering part of ``store in S(load)``."""
        if self._forwarded(store, load):
            return self.ctx.circuit.TRUE
        return self._order_of(store, load)

    def _initial_value_term(self, load: MemoryAccess) -> int:
        # Model-independent, so built (and cached) on the shared context.
        return self.ctx.initial_value_term(load)

    # ------------------------------------------------------------ utilities

    def _order_of(self, first: MemoryAccess, second: MemoryAccess) -> int:
        return self._order_handles[(first.index, second.index)]

    def _may_alias(self, first: MemoryAccess, second: MemoryAccess) -> bool:
        first_set = self._alias_sets[first.index]
        second_set = self._alias_sets[second.index]
        if first_set is None or second_set is None:
            return True
        return not first_set.isdisjoint(second_set)

    def _addr_eq(self, first: MemoryAccess, second: MemoryAccess) -> int:
        # The context cache is prewarmed by the skeleton build, so every
        # memory model shares one set of address-equality terms.
        return self.ctx.addr_eq(first, second)
