"""Differential harness: up to three independent consistency engines.

For one compiled test and one memory model this module computes the set of
reachable observation vectors with any subset of the repo's three engines —

* ``enumerator`` — the explicit-state operational enumerator
  (:mod:`repro.oracle.enumerator`),
* ``rfcheck`` — the polynomial reads-from closure engine
  (:mod:`repro.rfcheck`),
* ``sat`` — *mining* the SAT encoding (solve, decode the observation,
  block it, repeat, exactly like the Section 3.2 specification miner) —

and reports every pairwise difference, with direction.  The three
implementations share nothing below :class:`repro.memorymodel.base
.MemoryModel`, so an axiom dropped or mangled in any one of them shows up
as a divergence with the offending observation vectors attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.encoding import encode_test
from repro.encoding.testprogram import CompiledTest
from repro.memorymodel.base import MemoryModel, get_model
from repro.oracle.enumerator import (
    INCONCLUSIVE,
    OK,
    OracleResult,
    enumerate_outcomes,
)
from repro.sat.backend import make_backend_factory

#: Canonical engine order: cheap operational engines first, SAT last (so
#: the legacy "skip SAT when nothing conclusive to compare it against"
#: gate keeps working).
ENGINES = ("enumerator", "rfcheck", "sat")

#: What runs when no ``--engines`` is given: the historical two-way check.
DEFAULT_ENGINES = ("enumerator", "sat")


def parse_engines(spec) -> tuple[str, ...]:
    """Normalize an engine selection to a tuple in canonical order.

    Accepts ``None`` (the default pair), the string ``"all"``, a comma
    string like ``"enumerator,rfcheck"``, or any iterable of names.
    """
    if spec is None:
        return DEFAULT_ENGINES
    if isinstance(spec, str):
        spec = [part.strip() for part in spec.split(",") if part.strip()]
    names = list(spec)
    if "all" in names:
        return ENGINES
    unknown = [name for name in names if name not in ENGINES]
    if unknown:
        raise ValueError(
            f"unknown engine(s) {', '.join(sorted(set(unknown)))}; "
            f"choose from {', '.join(ENGINES)} or 'all'"
        )
    if not names:
        raise ValueError("no engines selected")
    return tuple(name for name in ENGINES if name in names)


class SatMiningOverflow(RuntimeError):
    """The SAT side produced more outcomes than the mining budget."""


def mine_sat_outcomes(
    compiled: CompiledTest,
    model: MemoryModel | str,
    backend_spec: str | None = None,
    max_outcomes: int = 4096,
    simplify: bool | None = None,
) -> set[tuple[int, ...]]:
    """Enumerate every reachable observation vector from the SAT encoding.

    Repeatedly solves the formula and blocks the decoded observation until
    UNSAT — the incremental path the specification miner uses, so this also
    exercises clause addition mid-solve.
    """
    model = get_model(model)
    encoded = encode_test(
        compiled, model, backend_factory=make_backend_factory(backend_spec),
        simplify=simplify,
    )
    outcomes: set[tuple[int, ...]] = set()
    encoded.expect_enumeration()
    while True:
        if len(outcomes) > max_outcomes:
            raise SatMiningOverflow(
                f"more than {max_outcomes} distinct observations"
            )
        if not encoded.solve():
            return outcomes
        observation = encoded.decode_current_observation()
        if observation in outcomes:  # pragma: no cover - solver bug guard
            raise RuntimeError(
                f"solver returned blocked observation {observation!r}"
            )
        outcomes.add(observation)
        encoded.block_observation(observation)


@dataclass
class EngineResult:
    """One engine's answer for one (test, model) pair."""

    engine: str
    status: str                                  # OK or INCONCLUSIVE
    outcomes: set[tuple[int, ...]] = field(default_factory=set)
    reason: str = ""
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == OK

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "status": self.status,
            "outcomes": len(self.outcomes) if self.ok else None,
            "reason": self.reason,
            "seconds": round(self.seconds, 6),
            "stats": dict(self.stats),
        }


@dataclass
class DifferentialReport:
    """Result of one multi-engine comparison.

    The legacy two-way surface (``oracle``, ``sat_outcomes``,
    ``sat_overflow``, ``missing_from_sat``, ``missing_from_oracle``) is
    preserved for existing callers; the general surface is
    ``engine_results`` plus :meth:`pair_divergences`.
    """

    name: str
    model: str
    oracle: OracleResult | None = None
    sat_outcomes: set[tuple[int, ...]] = field(default_factory=set)
    #: Non-empty when SAT mining blew its outcome budget — the SAT-side
    #: analogue of the oracle's budgets, equally inconclusive.
    sat_overflow: str = ""
    engine_results: dict[str, EngineResult] = field(default_factory=dict)

    def _ordered(self) -> list[EngineResult]:
        return [
            self.engine_results[name]
            for name in ENGINES
            if name in self.engine_results
        ]

    @property
    def engines(self) -> tuple[str, ...]:
        return tuple(result.engine for result in self._ordered())

    @property
    def inconclusive(self) -> bool:
        """At least one engine reached no verdict."""
        return any(not result.ok for result in self._ordered())

    @property
    def reason(self) -> str:
        """Why engines reached no verdict (empty when all conclusive)."""
        return "; ".join(
            f"{result.engine}: {result.reason}"
            for result in self._ordered()
            if not result.ok
        )

    def pair_divergences(self) -> list[dict]:
        """Each conclusive engine pair that disagrees, with direction.

        Every entry has ``first``/``second`` (engine names in canonical
        order) and the sorted outcome lists ``only_in_first`` /
        ``only_in_second``.
        """
        conclusive = [result for result in self._ordered() if result.ok]
        out: list[dict] = []
        for i, first in enumerate(conclusive):
            for second in conclusive[i + 1:]:
                only_first = first.outcomes - second.outcomes
                only_second = second.outcomes - first.outcomes
                if only_first or only_second:
                    out.append({
                        "first": first.engine,
                        "second": second.engine,
                        "only_in_first": sorted(only_first),
                        "only_in_second": sorted(only_second),
                    })
        return out

    def _pair(self, a: str, b: str) -> tuple[EngineResult, EngineResult] | None:
        first = self.engine_results.get(a)
        second = self.engine_results.get(b)
        if first is None or second is None or not (first.ok and second.ok):
            return None
        return first, second

    @property
    def missing_from_sat(self) -> set[tuple[int, ...]]:
        """Outcomes the enumerator reaches but the encoding forbids
        (an over-constrained / unsound-for-completeness encoder)."""
        pair = self._pair("enumerator", "sat")
        if pair is None:
            return set()
        return pair[0].outcomes - pair[1].outcomes

    @property
    def missing_from_oracle(self) -> set[tuple[int, ...]]:
        """Outcomes the encoding allows but the enumerator never reaches
        (an under-constrained encoder — the dangerous direction: FAIL
        verdicts could be spurious, PASS verdicts silent misses)."""
        pair = self._pair("enumerator", "sat")
        if pair is None:
            return set()
        return pair[1].outcomes - pair[0].outcomes

    @property
    def diverged(self) -> bool:
        return bool(self.pair_divergences())

    @property
    def ok(self) -> bool:
        """No divergence proven (inconclusive engines are skipped, not
        counted as failures)."""
        return not self.diverged

    def describe(self) -> str:
        divergences = self.pair_divergences()
        if divergences:
            parts = [f"{self.name} @ {self.model}: DIVERGENCE"]
            for pair in divergences:
                if pair["only_in_second"]:
                    parts.append(
                        f"{pair['second']} allows but {pair['first']} "
                        "forbids: "
                        + ", ".join(map(str, pair["only_in_second"]))
                    )
                if pair["only_in_first"]:
                    parts.append(
                        f"{pair['first']} allows but {pair['second']} "
                        "forbids: "
                        + ", ".join(map(str, pair["only_in_first"]))
                    )
            return "; ".join(parts)
        conclusive = [result for result in self._ordered() if result.ok]
        if len(conclusive) < 2:
            return (
                f"{self.name} @ {self.model}: INCONCLUSIVE "
                f"({self.reason or 'fewer than two conclusive engines'})"
            )
        agreed = (
            f"{self.name} @ {self.model}: "
            f"{'/'.join(result.engine for result in conclusive)} agree on "
            f"{len(conclusive[0].outcomes)} outcomes"
        )
        if self.inconclusive:
            agreed += f" ({self.reason})"
        return agreed


def _run_rfcheck(compiled, model, *, max_steps, max_checks):
    from repro.rfcheck.miner import rfcheck_outcomes

    return rfcheck_outcomes(
        compiled, model, max_steps=max_steps, max_checks=max_checks
    )


def differential_check(
    compiled: CompiledTest,
    model: MemoryModel | str,
    backend_spec: str | None = None,
    name: str | None = None,
    max_steps: int = 100_000,
    max_nodes: int = 400_000,
    max_outcomes: int = 4096,
    simplify: bool | None = None,
    engines=None,
    max_checks: int = 250_000,
) -> DifferentialReport:
    """Compare the outcome sets of the selected engines for one
    (test, model) pair.

    ``engines`` is anything :func:`parse_engines` accepts; the default is
    the historical enumerator-vs-SAT pair.  SAT mining is skipped (and
    marked inconclusive) when every other requested engine was itself
    inconclusive — there would be nothing to compare its outcomes against,
    and the formula may be exactly as pathological.
    """
    model = get_model(model)
    selected = parse_engines(engines)
    report = DifferentialReport(
        name=name or compiled.test.name,
        model=model.name,
    )

    if "enumerator" in selected:
        started = time.perf_counter()
        oracle = enumerate_outcomes(
            compiled, model, max_steps=max_steps, max_nodes=max_nodes
        )
        report.oracle = oracle
        report.engine_results["enumerator"] = EngineResult(
            engine="enumerator",
            status=oracle.status,
            outcomes=set(oracle.outcomes),
            reason=oracle.reason,
            seconds=time.perf_counter() - started,
            stats={"nodes": oracle.nodes, "traces": oracle.traces},
        )

    if "rfcheck" in selected:
        started = time.perf_counter()
        rf = _run_rfcheck(
            compiled, model, max_steps=max_steps, max_checks=max_checks
        )
        report.engine_results["rfcheck"] = EngineResult(
            engine="rfcheck",
            status=rf.status,
            outcomes=set(rf.outcomes),
            reason=rf.reason,
            seconds=time.perf_counter() - started,
            stats={
                "assignments": rf.assignments,
                "checks": rf.checks,
                "traces": rf.traces,
            },
        )

    if "sat" in selected:
        others = [
            result for key, result in report.engine_results.items()
            if key != "sat"
        ]
        if others and not any(result.ok for result in others):
            # Nothing conclusive to compare against; the legacy gate.
            report.engine_results["sat"] = EngineResult(
                engine="sat",
                status=INCONCLUSIVE,
                reason="skipped: every other engine was inconclusive",
            )
        else:
            started = time.perf_counter()
            try:
                mined = mine_sat_outcomes(
                    compiled, model, backend_spec=backend_spec,
                    max_outcomes=max_outcomes, simplify=simplify,
                )
                report.sat_outcomes = mined
                report.engine_results["sat"] = EngineResult(
                    engine="sat",
                    status=OK,
                    outcomes=set(mined),
                    seconds=time.perf_counter() - started,
                )
            except SatMiningOverflow as exc:
                # A budget breach, like the oracle's own: skip, don't error.
                report.sat_overflow = f"SAT mining overflow: {exc}"
                report.engine_results["sat"] = EngineResult(
                    engine="sat",
                    status=INCONCLUSIVE,
                    reason=report.sat_overflow,
                    seconds=time.perf_counter() - started,
                )
    return report
