"""Result objects returned by the checker."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.counterexample import CounterexampleTrace
from repro.core.specification import ObservationSet
from repro.encoding.formula import EncodingStatistics, order_counter_dict


@dataclass
class CheckStatistics:
    """Timing and size statistics for one check (one row of Fig. 10)."""

    implementation: str = ""
    test: str = ""
    memory_model: str = ""
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    accesses: int = 0
    cnf_variables: int = 0
    cnf_clauses: int = 0
    order_pairs: int = 0
    order_vars: int = 0
    order_pairs_static: int = 0
    transitivity_clauses: int = 0
    dense_order: bool = False
    observation_set_size: int = 0
    #: Per-phase wall-clock breakdown of one check.  ``compile_seconds``
    #: is near-zero on session-cache hits and ``mining_seconds`` is zero
    #: unless this check mined the specification itself;
    #: ``encode_seconds`` splits into the model-independent skeleton build
    #: (zero when a memoized skeleton was reused — ``skeleton_shared``)
    #: and the per-model layer; CNF preprocessing time is the separate
    #: ``solver_preprocess_seconds`` counter below.
    compile_seconds: float = 0.0
    mining_seconds: float = 0.0
    encode_seconds: float = 0.0
    skeleton_seconds: float = 0.0
    layer_seconds: float = 0.0
    skeleton_shared: bool = False
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    #: True when this result was served from the persistent on-disk store
    #: (:mod:`repro.core.store`) — the other phase timings then describe
    #: the original run that populated the cell, not this one.
    store_hit: bool = False
    solver_conflicts: int = 0
    solver_decisions: int = 0
    solver_propagations: int = 0
    solver_restarts: int = 0
    solver_learned_clauses: int = 0
    solver_deleted_clauses: int = 0
    #: In-process CNF preprocessing (repro.sat.simplify): whether the
    #: knob was resolved on for this check.  The backend may still bypass
    #: itself on formulas below the engagement threshold — zero
    #: ``solver_vars_eliminated``/``solver_preprocess_seconds`` with
    #: ``simplify=True`` means exactly that.
    simplify: bool = False
    solver_vars_eliminated: int = 0
    solver_clauses_subsumed: int = 0
    solver_equiv_merged: int = 0
    solver_preprocess_seconds: float = 0.0
    solver_backend: str = ""
    #: False when the backend cannot report counters (external DIMACS
    #: solvers), so zeros are not mistaken for a trivially easy instance.
    solver_counters_available: bool = True
    #: "" for a completed check; "TIMEOUT" / "OOM" when a resource budget
    #: (:mod:`repro.core.limits`) expired mid-check.  Degraded checks keep
    #: whatever phase counters were accumulated before the breach.
    degraded: str = ""

    def merge_solver(self, stats, backend_name: str | None = None) -> None:
        """Record the solver counters of one check (a SolverStats delta);
        ``stats=None`` marks the counters as unavailable."""
        if stats is not None:
            self.solver_conflicts = stats.conflicts
            self.solver_decisions = stats.decisions
            self.solver_propagations = stats.propagations
            self.solver_restarts = stats.restarts
            self.solver_learned_clauses = stats.learned_clauses
            self.solver_deleted_clauses = stats.deleted_clauses
            self.solver_vars_eliminated = stats.vars_eliminated
            self.solver_clauses_subsumed = stats.clauses_subsumed
            self.solver_equiv_merged = stats.equiv_merged
            self.solver_preprocess_seconds = stats.preprocess_seconds
        else:
            self.solver_counters_available = False
        if backend_name:
            self.solver_backend = backend_name

    def solver_dict(self) -> dict:
        """The per-backend solver counters, for benchmark JSON output."""
        return {
            "backend": self.solver_backend,
            "counters_available": self.solver_counters_available,
            "decisions": self.solver_decisions,
            "propagations": self.solver_propagations,
            "conflicts": self.solver_conflicts,
            "restarts": self.solver_restarts,
            "learned_clauses": self.solver_learned_clauses,
            "deleted_clauses": self.solver_deleted_clauses,
            "vars_eliminated": self.solver_vars_eliminated,
            "clauses_subsumed": self.solver_clauses_subsumed,
            "equiv_merged": self.solver_equiv_merged,
            "preprocess_seconds": self.solver_preprocess_seconds,
        }

    def merge_encoding(self, stats: EncodingStatistics) -> None:
        self.instructions = stats.instructions
        self.loads = stats.loads
        self.stores = stats.stores
        self.accesses = stats.accesses
        self.cnf_variables = stats.cnf_variables
        self.cnf_clauses = stats.cnf_clauses
        self.order_pairs = stats.order_pairs
        self.order_vars = stats.order_vars
        self.order_pairs_static = stats.order_pairs_static
        self.transitivity_clauses = stats.transitivity_clauses
        self.dense_order = stats.dense_order
        self.encode_seconds = stats.encode_seconds
        self.skeleton_seconds = stats.skeleton_seconds
        self.layer_seconds = stats.layer_seconds
        self.skeleton_shared = stats.skeleton_shared

    def order_dict(self) -> dict:
        """The memory-order encoding counters, for benchmark JSON output
        (the shared :data:`~repro.encoding.formula.ORDER_COUNTER_FIELDS`)."""
        return order_counter_dict(self)

    def phase_dict(self) -> dict:
        """The per-phase timing breakdown, for ``matrix --json`` cells."""
        return {
            "compile_seconds": self.compile_seconds,
            "mining_seconds": self.mining_seconds,
            "encode_seconds": self.encode_seconds,
            "skeleton_seconds": self.skeleton_seconds,
            "layer_seconds": self.layer_seconds,
            "skeleton_shared": self.skeleton_shared,
            "simplify_seconds": self.solver_preprocess_seconds,
            "solve_seconds": self.solve_seconds,
            "total_seconds": self.total_seconds,
            "store_hit": self.store_hit,
            "degraded": self.degraded,
        }

    def profile_line(self) -> str:
        """One-line per-cell phase report (the ``CHECKFENCE_PROFILE=1``
        output)."""
        label = f"{self.implementation}/{self.test}@{self.memory_model}"
        if self.store_hit:
            return f"[profile] {label} store-hit total={self.total_seconds:.3f}s"
        skeleton = (
            "shared"
            if self.skeleton_shared
            else f"{self.skeleton_seconds:.3f}s"
        )
        return (
            f"[profile] {label} "
            f"compile={self.compile_seconds:.3f}s "
            f"mine={self.mining_seconds:.3f}s "
            f"encode={self.encode_seconds:.3f}s"
            f"(skeleton {skeleton} + layer {self.layer_seconds:.3f}s) "
            f"simplify={self.solver_preprocess_seconds:.3f}s "
            f"solve={self.solve_seconds:.3f}s "
            f"total={self.total_seconds:.3f}s"
        )


def profile_enabled() -> bool:
    """The ``CHECKFENCE_PROFILE`` knob (default off): when on, every check
    prints its :meth:`CheckStatistics.profile_line` to stderr."""
    return os.environ.get("CHECKFENCE_PROFILE", "0") not in ("", "0")


@dataclass
class CheckResult:
    """Outcome of checking one test against one memory model."""

    passed: bool
    implementation: str
    test: str
    memory_model: str
    specification: ObservationSet | None = None
    counterexample: CounterexampleTrace | None = None
    stats: CheckStatistics = field(default_factory=CheckStatistics)
    loop_bounds: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: "" for a completed check; "TIMEOUT" / "OOM" when a resource budget
    #: expired.  ``passed`` is False then, but a degraded result is *not*
    #: evidence of a bug — it must never be conflated with FAIL, and it is
    #: never written to the persistent store.
    degraded: str = ""

    @property
    def failed(self) -> bool:
        return not self.passed and not self.degraded

    @property
    def verdict(self) -> str:
        if self.degraded:
            return self.degraded
        return "PASS" if self.passed else "FAIL"

    def summary(self) -> str:
        verdict = self.verdict
        line = (
            f"[{verdict}] {self.implementation} / {self.test} "
            f"on {self.memory_model}: "
            f"{self.stats.accesses} accesses, "
            f"{self.stats.cnf_clauses} clauses, "
            f"spec size {self.stats.observation_set_size}, "
            f"total {self.stats.total_seconds:.2f}s"
        )
        if self.counterexample is not None:
            line += f"\n{self.counterexample.format()}"
        return line
