"""Specification mining: computing the observation set ``S_{T,I}``.

The specification of a test is the set of observation vectors produced by
*serial* executions (atomic, interleaved operations).  Two miners are
provided, mirroring Section 3.2 and the "refset" data points of Fig. 11a:

* :class:`SatSpecificationMiner` — the paper's iterative procedure: solve the
  Seriality-model formula, record the observation, add a blocking clause,
  repeat until UNSAT.
* :class:`ReferenceSpecificationMiner` — runs a small sequential Python
  reference implementation over every interleaving of the operations and
  every argument choice.  This is the fast path the paper recommends for
  practice ("we can often compute observation sets much more efficiently by
  using a small, fast reference implementation").
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.core import limits
from repro.encoding.formula import EncodedTest, encode_test
from repro.encoding.testprogram import CompiledTest, INIT_THREAD
from repro.lsl.program import Invocation, SymbolicTest
from repro.memorymodel.base import SERIAL
from repro.sat.backend import BackendFactory


@dataclass
class ObservationSet:
    """The mined specification: a set of observation vectors plus metadata."""

    labels: list[str]
    observations: set[tuple[int, ...]] = field(default_factory=set)
    mining_seconds: float = 0.0
    method: str = "reference"
    solver_iterations: int = 0

    def __contains__(self, observation: tuple[int, ...]) -> bool:
        return observation in self.observations

    def __len__(self) -> int:
        return len(self.observations)

    def add(self, observation: tuple[int, ...]) -> None:
        self.observations.add(observation)

    def describe(self, observation: tuple[int, ...]) -> str:
        parts = [
            f"{label}={value}" for label, value in zip(self.labels, observation)
        ]
        return ", ".join(parts)


class SpecificationError(RuntimeError):
    """The specification could not be mined (bad reference, no serial runs)."""


class SatSpecificationMiner:
    """Mines the observation set with the SAT back-end (Seriality model)."""

    def __init__(
        self,
        compiled: CompiledTest,
        max_observations: int = 100_000,
        backend_factory: BackendFactory | None = None,
        simplify: bool | None = None,
    ):
        self.compiled = compiled
        self.max_observations = max_observations
        self.backend_factory = backend_factory
        self.simplify = simplify

    def mine(self) -> ObservationSet:
        start = time.perf_counter()
        # One incremental backend serves the whole blocking-clause loop:
        # learned clauses survive across the repeated solve() calls.
        encoded: EncodedTest = encode_test(
            self.compiled, SERIAL, backend_factory=self.backend_factory,
            simplify=self.simplify,
        )
        spec = ObservationSet(
            labels=self.compiled.observation_labels(), method="sat"
        )
        encoded.expect_enumeration()
        iterations = 0
        while iterations < self.max_observations:
            # The solve itself polls inside the backend; this covers the
            # decode/block bookkeeping between iterations of a long
            # enumeration.
            limits.check_deadline()
            result = encoded.solve()
            iterations += 1
            if not result:
                break
            observation = encoded.decode_current_observation()
            spec.add(observation)
            encoded.block_observation(observation)
        spec.solver_iterations = iterations
        spec.mining_seconds = time.perf_counter() - start
        return spec


class ReferenceSpecificationMiner:
    """Mines the observation set by enumerating serial runs of a reference
    implementation."""

    def __init__(
        self,
        compiled: CompiledTest,
        max_interleavings: int = 2_000_000,
    ) -> None:
        if compiled.implementation.reference is None:
            raise SpecificationError(
                f"implementation {compiled.implementation.name!r} has no "
                "reference implementation"
            )
        self.compiled = compiled
        self.max_interleavings = max_interleavings

    # --------------------------------------------------------------- public

    def mine(self) -> ObservationSet:
        start = time.perf_counter()
        spec = ObservationSet(
            labels=self.compiled.observation_labels(), method="reference"
        )
        test = self.compiled.test
        init_slots, thread_slots = self._invocation_slots()

        thread_sequences = [
            [(thread, position) for position in range(len(test.threads[thread]))]
            for thread in range(len(test.threads))
        ]
        count = 0
        for interleaving in interleavings(thread_sequences):
            if count & 63 == 0:
                limits.check_deadline()
            for observation in self._run_choices(interleaving, init_slots,
                                                 thread_slots):
                spec.add(observation)
            count += 1
            if count > self.max_interleavings:
                raise SpecificationError(
                    "too many interleavings for reference mining; "
                    "use the SAT miner"
                )
        spec.mining_seconds = time.perf_counter() - start
        return spec

    def contains(self, observation: tuple[int, ...]) -> bool:
        """Membership test with early exit (used by the lazy baseline)."""
        test = self.compiled.test
        init_slots, thread_slots = self._invocation_slots()
        thread_sequences = [
            [(thread, position) for position in range(len(test.threads[thread]))]
            for thread in range(len(test.threads))
        ]
        for interleaving in interleavings(thread_sequences):
            for candidate in self._run_choices(interleaving, init_slots,
                                               thread_slots):
                if candidate == observation:
                    return True
        return False

    # ------------------------------------------------------------ internals

    def _invocation_slots(self):
        """Map invocations to their slot ranges in the observation vector."""
        init_slots: list[tuple[Invocation, int, int]] = []
        thread_slots: dict[tuple[int, int], tuple[Invocation, int, int]] = {}
        offset = 0
        test = self.compiled.test
        for compiled_inv in self.compiled.invocations:
            width = len(compiled_inv.observable_regs)
            if compiled_inv.thread == INIT_THREAD:
                invocation = test.init[compiled_inv.position]
                init_slots.append((invocation, offset, width))
            else:
                invocation = test.threads[compiled_inv.thread][compiled_inv.position]
                thread_slots[(compiled_inv.thread, compiled_inv.position)] = (
                    invocation, offset, width,
                )
            offset += width
        self._total_slots = offset
        return init_slots, thread_slots

    def _run_choices(self, interleaving, init_slots, thread_slots):
        """Yield the observation of every argument choice for one interleaving."""
        # Collect the symbolic (unspecified) arguments in a fixed order.
        symbolic: list[tuple[str, int, tuple[int, ...]]] = []

        def register_args(invocation: Invocation, key: str) -> None:
            spec = self.compiled.implementation.operation(invocation.operation)
            for index in range(spec.num_value_args):
                provided = (
                    invocation.args[index] if index < len(invocation.args) else None
                )
                if provided is None:
                    symbolic.append((key, index, invocation.choice_domain))

        for position, (invocation, _, _) in enumerate(init_slots):
            register_args(invocation, f"init:{position}")
        for (thread, position), (invocation, _, _) in thread_slots.items():
            register_args(invocation, f"{thread}:{position}")

        domains = [choices for _, _, choices in symbolic]
        for assignment in itertools.product(*domains) if domains else [()]:
            chosen = {
                (key, index): value
                for (key, index, _), value in zip(symbolic, assignment)
            }
            yield self._run_once(interleaving, init_slots, thread_slots, chosen)

    def _run_once(self, interleaving, init_slots, thread_slots, chosen):
        reference = self.compiled.implementation.reference()
        observation = [0] * self._total_slots

        def call(invocation: Invocation, key: str, offset: int, width: int) -> None:
            spec = self.compiled.implementation.operation(invocation.operation)
            args = []
            for index in range(spec.num_value_args):
                provided = (
                    invocation.args[index] if index < len(invocation.args) else None
                )
                if provided is None:
                    provided = chosen[(key, index)]
                args.append(provided)
            method = getattr(reference, invocation.operation, None)
            if method is None:
                raise SpecificationError(
                    f"reference for {self.compiled.implementation.name!r} has "
                    f"no operation {invocation.operation!r}"
                )
            result = method(*args)
            observables = list(args) + _normalize_result(result)
            expected = spec.num_observables
            if len(observables) != expected:
                raise SpecificationError(
                    f"reference operation {invocation.operation!r} produced "
                    f"{len(observables)} observables, expected {expected}"
                )
            observation[offset:offset + width] = observables

        for position, (invocation, offset, width) in enumerate(init_slots):
            call(invocation, f"init:{position}", offset, width)
        for thread, position in interleaving:
            invocation, offset, width = thread_slots[(thread, position)]
            call(invocation, f"{thread}:{position}", offset, width)
        return tuple(observation)


def _normalize_result(result) -> list[int]:
    if result is None:
        return []
    if isinstance(result, bool):
        return [int(result)]
    if isinstance(result, tuple):
        return [int(x) for x in result]
    return [int(result)]


def interleavings(sequences: list[list]):
    """Yield every interleaving of the given sequences (per-sequence order
    preserved)."""
    non_empty = [s for s in sequences if s]
    if not non_empty:
        yield []
        return
    yield from _interleave([list(s) for s in non_empty], [])


def _interleave(sequences, prefix):
    if all(not s for s in sequences):
        yield list(prefix)
        return
    for index, sequence in enumerate(sequences):
        if not sequence:
            continue
        head = sequence.pop(0)
        prefix.append(head)
        yield from _interleave(sequences, prefix)
        prefix.pop()
        sequence.insert(0, head)


def mine_specification(
    compiled: CompiledTest,
    method: str = "auto",
    backend_factory: BackendFactory | None = None,
    simplify: bool | None = None,
) -> ObservationSet:
    """Mine the observation set with the requested method.

    ``auto`` uses the reference implementation when available and falls back
    to the SAT miner otherwise.
    """
    if method == "auto":
        method = (
            "reference" if compiled.implementation.reference is not None else "sat"
        )
    if method == "reference":
        return ReferenceSpecificationMiner(compiled).mine()
    if method == "sat":
        return SatSpecificationMiner(
            compiled, backend_factory=backend_factory, simplify=simplify,
        ).mine()
    raise ValueError(f"unknown specification mining method {method!r}")
