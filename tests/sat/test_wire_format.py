"""The CNF storage format is the IPASIR wire format.

:class:`repro.sat.cnf.CNF` keeps every clause 0-terminated in one
``array('i')``, and :class:`repro.encoding.formula.EncodedTest` hands the
unsent tail of that buffer to an IPASIR backend in one piece
(``add_clause_buffer``).  These tests pin that every way of building a CNF
reads back as the same tuples, that the buffer hand-off answers exactly
like the tuple path, and that a 0 literal is still rejected on every path.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import encode_test
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.memorymodel.base import get_model
from repro.sat.backend import InternalBackend, is_native, make_backend_factory
from repro.sat.cnf import CNF, split_clauses
from repro.sat.ipasir import IpasirBackend, IpasirError

_LITERAL = st.integers(1, 8).flatmap(lambda v: st.sampled_from([v, -v]))
#: Normalized clauses (distinct variables, so no duplicate or tautology),
#: the empty clause included.
_CLAUSE = st.lists(st.integers(1, 8), max_size=4, unique=True).flatmap(
    lambda variables: st.tuples(
        *[st.sampled_from([v, -v]) for v in variables]
    )
)


def _native_factory():
    factory = make_backend_factory("auto")
    if not is_native(factory):
        pytest.skip("the native solver cannot be built here")
    return factory


# ------------------------------------------------------------ CNF buffer


def test_every_builder_round_trips_through_the_buffer():
    cnf = CNF(num_vars=4)
    cnf.add_clause([1, -2, 1])          # duplicate literal dropped
    cnf.add_clause([3, -3])             # tautology dropped
    cnf.add_clause_trusted((2, 4))
    cnf.add_clauses_trusted_flat([-1, 0, 0, 3, -4, 0])  # incl. empty clause
    expected = [(1, -2), (2, 4), (-1,), (), (3, -4)]
    assert list(cnf.clauses) == expected
    assert len(cnf.clauses) == cnf.num_clauses == len(expected)
    assert list(cnf.literals_since(0)) == [
        1, -2, 0, 2, 4, 0, -1, 0, 0, 3, -4, 0,
    ]
    assert cnf.buffer_size == 12
    assert cnf.clauses[1] == (2, 4) and cnf.clauses[-1] == (3, -4)
    assert cnf.clauses[1:3] == [(2, 4), (-1,)]

    snapshot = cnf.copy()
    cnf.add_clause([4])
    assert list(snapshot.clauses) == expected
    assert list(cnf.clauses) == expected + [(4,)]

    other = CNF(num_vars=6)
    other.add_clause([5, 6])
    snapshot.extend(other)
    assert list(snapshot.clauses) == expected + [(5, 6)]
    assert snapshot.num_clauses == len(expected) + 1
    assert snapshot.num_vars == 6


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(st.lists(_CLAUSE, max_size=6), max_size=5))
def test_tails_split_back_into_the_added_clauses(batches):
    """Clauses added in batches through alternating entry points: the
    whole view and every per-batch tail (what a backend sync hands over)
    read back as the clauses that were added."""
    cnf = CNF(num_vars=8)
    added: list[tuple[int, ...]] = []
    for number, batch in enumerate(batches):
        offset, count = cnf.buffer_size, cnf.num_clauses
        if number % 3 == 0:
            for clause in batch:
                cnf.add_clause(clause)
        elif number % 3 == 1:
            for clause in batch:
                cnf.add_clause_trusted(clause)
        else:
            cnf.add_clauses_trusted_flat(
                [lit for clause in batch for lit in (*clause, 0)]
            )
        tail = cnf.literals_since(offset)
        assert list(split_clauses(tail, cnf.num_clauses - count)) == batch
        added.extend(batch)
    assert list(cnf.clauses) == added
    assert list(cnf.copy().clauses) == added


def test_a_zero_literal_is_rejected():
    with pytest.raises(ValueError):
        CNF().add_clause([1, 0, 2])
    backend = _native_factory()()
    with pytest.raises(IpasirError):
        backend.add_clauses([[1, 0, 2]])
    # Hand-built buffers: one terminator too many (a 0 inside a clause),
    # and a last clause with no terminator.
    with pytest.raises(IpasirError):
        backend.add_clause_buffer(array("i", [1, 0, 2, 0]), 1)
    with pytest.raises(IpasirError):
        backend.add_clause_buffer(array("i", [1, 0, 2]), 1)
    assert backend.add_clause_buffer(array("i", [1, 0, 2, 0]), 2) is True
    assert backend.solve() is True


class _PlainLibrary:
    """An IPASIR library without the bulk extension that records the
    ``ipasir_add`` stream instead of solving."""

    supports_bulk_add = False

    def __init__(self) -> None:
        self.stream: list[int] = []

    def init(self) -> int:
        return 1

    def signature(self) -> str:
        return "plain"

    def add(self, handle: int, literal: int) -> None:
        self.stream.append(literal)


def test_plain_libraries_get_the_buffer_literal_by_literal():
    library = _PlainLibrary()
    backend = IpasirBackend(library)
    backend._handle = None  # nothing to release
    assert backend.add_clause_buffer(array("i", [1, -2, 0, 3, 0]), 2) is True
    assert backend.add_clauses([(4,), ()]) is False  # an empty clause
    assert library.stream == [1, -2, 0, 3, 0, 4, 0, 0]
    with pytest.raises(IpasirError):
        backend.add_clauses([(1, 0)])
    assert library.stream == [1, -2, 0, 3, 0, 4, 0, 0]


# ----------------------------------------------------- buffer vs tuples


_QUERY = st.lists(_LITERAL, max_size=4)
_STEP = st.tuples(
    st.lists(_CLAUSE, max_size=10),
    st.lists(_QUERY, min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=4))
def test_buffer_sync_answers_like_the_tuple_path(steps):
    """A CNF synced to the native solver in several increments through
    buffer tails gives the same verdicts, models and cores as the same
    clauses added as tuples, and the same verdicts as the Python solver."""
    factory = _native_factory()
    buffered, tupled, reference = factory(), factory(), InternalBackend()
    cnf = CNF()
    synced_literals = synced_clauses = 0
    for batch, queries in steps:
        for clause in batch:
            cnf.add_clause_trusted(clause)
            cnf.num_vars = max([cnf.num_vars, *map(abs, clause)])
        buffered.ensure_vars(cnf.num_vars)
        buffered.add_clause_buffer(
            cnf.literals_since(synced_literals),
            cnf.num_clauses - synced_clauses,
        )
        synced_literals, synced_clauses = cnf.buffer_size, cnf.num_clauses
        tupled.add_clauses(batch)
        reference.add_clauses(batch)
        for assumptions in queries:
            verdict = buffered.solve(assumptions)
            assert verdict is tupled.solve(assumptions)
            assert verdict is reference.solve(assumptions)
            assert buffered.failed_assumptions() == tupled.failed_assumptions()
            if verdict:
                wanted = range(1, cnf.num_vars + 1)
                assert buffered.values_of(wanted) == tupled.values_of(wanted)


def test_encoded_test_hands_the_native_solver_buffers(monkeypatch):
    """EncodedTest syncs a native backend through the buffer path only:
    the per-clause tuple path is never taken, before or after lowering
    fresh assumption clauses."""
    factory = _native_factory()

    def no_tuples(self, clauses):
        raise AssertionError("clauses went through the tuple path")

    monkeypatch.setattr(IpasirBackend, "add_clauses", no_tuples)
    litmus = available_litmus_tests()["store-buffering"]
    encoded = encode_test(
        compiled_litmus(litmus), get_model("relaxed"), backend_factory=factory
    )
    assert encoded.solve() is True
    handles = encoded.observation_equals((0, 0))
    composite = encoded.ctx.circuit.and_many(handles)
    assert encoded.solve(assumptions=[composite]) is True
    assert encoded._synced_clauses == encoded.cnf.num_clauses
