"""Propositional CNF formulas.

Literals follow the DIMACS convention: a variable is a positive integer
``v >= 1`` and a literal is ``+v`` (the variable itself) or ``-v`` (its
negation).  :class:`CNF` is the clause database that the rest of the system
builds and that :class:`repro.sat.solver.Solver` consumes.

Clauses are stored in one flat ``array('i')``, each clause's literals
followed by a terminating 0 — the IPASIR wire format, which is exactly
what the native solver's bulk entry point ``ipasirx_add_clauses`` reads
(see :mod:`repro.sat.ipasir`).  That keeps the per-clause overhead at one
machine word, makes :meth:`CNF.copy` an ``array``-level memcpy (the encoder
snapshots a shared formula skeleton once per memory model), and lets
:class:`repro.encoding.formula.EncodedTest` hand every clause not yet sent
to the native solver over as one buffer slice (:meth:`CNF.literals_since`)
with no per-clause Python work.  A clause count is kept alongside, so
``len`` stays O(1); there is no per-clause offset index.

The :attr:`CNF.clauses` attribute is a sequence view that yields tuples,
so consumers that want clauses one at a time (``for clause in
cnf.clauses``, ``len(cnf.clauses)``) — the pure-Python solver, the
preprocessor, DIMACS export — keep working unchanged; :func:`split_clauses`
does the same for a buffer slice.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence


def neg(literal: int) -> int:
    """Return the negation of a literal."""
    return -literal


def var_of(literal: int) -> int:
    """Return the variable of a literal (a positive integer)."""
    return literal if literal > 0 else -literal


def sign_of(literal: int) -> bool:
    """Return True if the literal is positive."""
    return literal > 0


def split_clauses(literals: array, count: int) -> Iterator[tuple[int, ...]]:
    """Yield the first ``count`` 0-terminated clauses of ``literals`` as
    tuples.  Each tuple is collected at C speed: ``iter(next_literal, 0)``
    stops at the terminator."""
    next_literal = iter(literals).__next__
    for _ in range(count):
        yield tuple(iter(next_literal, 0))


class ClauseView(Sequence):
    """Read-only sequence of clauses over the flat literal buffer.

    Iteration materializes tuples on demand, so the view is
    interchangeable with the ``list[tuple[int, ...]]`` the clause store
    used to be.  The view is *live*: clauses added to the owning
    :class:`CNF` after the view was obtained are visible through it.
    Indexing walks the buffer from the start (there is no offset index);
    nothing on a hot path indexes clauses.
    """

    __slots__ = ("_cnf",)

    def __init__(self, cnf: "CNF") -> None:
        self._cnf = cnf

    def __len__(self) -> int:
        return self._cnf._count

    def __getitem__(self, index):
        return list(self)[index]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return split_clauses(self._cnf._lits, self._cnf._count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClauseView({len(self)} clauses)"


class CNF:
    """A growable CNF formula (clause database plus variable allocator)."""

    __slots__ = ("num_vars", "_lits", "_count", "names")

    def __init__(self, num_vars: int = 0) -> None:
        self.num_vars = num_vars
        #: Flat literal buffer: every clause's literals followed by a 0.
        self._lits: array = array("i")
        #: Number of clauses (terminating zeros) in ``_lits``.
        self._count = 0
        #: Optional human-readable names for variables (for trace decoding).
        self.names: dict[int, str] = {}

    @property
    def clauses(self) -> ClauseView:
        """The clauses as a live, tuple-yielding sequence view."""
        return ClauseView(self)

    def literals_since(self, offset: int) -> array:
        """The 0-terminated clauses from buffer offset ``offset`` (a
        clause boundary: an earlier :attr:`buffer_size`) to the end, as
        one ``array('i')`` slice in the IPASIR wire format."""
        return self._lits[offset:]

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable and return it (a positive integer)."""
        self.num_vars += 1
        if name is not None:
            self.names[self.num_vars] = name
        return self.num_vars

    def new_vars(self, count: int, prefix: str | None = None) -> list[int]:
        """Allocate ``count`` fresh variables."""
        out = []
        for i in range(count):
            name = f"{prefix}[{i}]" if prefix is not None else None
            out.append(self.new_var(name))
        return out

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause (a disjunction of literals).

        Tautological clauses (containing both ``l`` and ``-l``) are dropped
        and duplicate literals are removed, which keeps the solver input
        clean without changing satisfiability.
        """
        seen: set[int] = set()
        out: list[int] = []
        num_vars = self.num_vars
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > num_vars:
                # Allow callers to use variables they allocated elsewhere,
                # but keep num_vars consistent.
                num_vars = var
            if -lit in seen:
                self.num_vars = num_vars
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        self.num_vars = num_vars
        out.append(0)
        self._lits.extend(out)
        self._count += 1

    def add_clause_trusted(self, literals) -> None:
        """Append a clause known to be normalized already.

        The caller guarantees: no zero literal, no duplicate literals, not
        a tautology, and every variable already allocated.  Hot emitters
        (Tseitin lowering, the transitivity triangles) satisfy all four by
        construction, and skipping the per-literal checks roughly halves
        their clause-emission cost.
        """
        self._lits.extend(literals)
        self._lits.append(0)
        self._count += 1

    def add_clauses_trusted_flat(self, literals: list[int]) -> None:
        """Bulk form of :meth:`add_clause_trusted`: ``literals`` holds the
        clauses back to back, each followed by a 0 (the storage format).
        One array-level extend installs every clause and one C-level count
        of the zeros updates the clause count; nothing runs per clause."""
        self._lits.extend(literals)
        self._count += literals.count(0)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def extend(self, other: "CNF") -> None:
        """Append all clauses of ``other`` (variables must already be shared)."""
        self.num_vars = max(self.num_vars, other.num_vars)
        self._lits.extend(other._lits)
        self._count += other._count
        self.names.update(other.names)

    # -- convenience constraint builders ------------------------------------

    def add_unit(self, literal: int) -> None:
        self.add_clause([literal])

    def add_implies(self, antecedent: int, consequent: int) -> None:
        """Add ``antecedent -> consequent``."""
        self.add_clause([-antecedent, consequent])

    def add_iff(self, a: int, b: int) -> None:
        """Add ``a <-> b``."""
        self.add_clause([-a, b])
        self.add_clause([a, -b])

    def add_at_most_one(self, literals: Sequence[int]) -> None:
        """Pairwise at-most-one constraint."""
        for i in range(len(literals)):
            for j in range(i + 1, len(literals)):
                self.add_clause([-literals[i], -literals[j]])

    def add_exactly_one(self, literals: Sequence[int]) -> None:
        self.add_clause(list(literals))
        self.add_at_most_one(literals)

    # -- statistics ----------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        return self._count

    @property
    def buffer_size(self) -> int:
        """Length of the literal buffer, terminators included: the offset
        at which the next clause will start."""
        return len(self._lits)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return self._count

    def copy(self) -> "CNF":
        """A cheap snapshot: the literal buffer copies at memcpy speed."""
        out = CNF(num_vars=self.num_vars)
        out._lits = self._lits[:]
        out._count = self._count
        out.names = dict(self.names)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CNF(vars={self.num_vars}, clauses={self.num_clauses})"
