"""Lazy loop unrolling (Section 3.3).

Loops are first unrolled once; the checker then solves specifically for
executions that would exceed the bounds (the unroller's overflow flags).  If
such an execution exists, the bound of every affected loop instance is
incremented and the procedure repeats; otherwise the bounds are known to be
sufficient and the regular check can proceed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.datatypes.spec import DataTypeImplementation
from repro.encoding.formula import encode_test
from repro.encoding.testprogram import CompiledTest, compile_test
from repro.lsl.program import Program, SymbolicTest
from repro.memorymodel.base import MemoryModel
from repro.sat.backend import BackendFactory


@dataclass
class LoopBoundResult:
    """Outcome of the bound-refinement procedure."""

    compiled: CompiledTest
    bounds: dict[str, int] = field(default_factory=dict)
    refinement_rounds: int = 0
    seconds: float = 0.0
    converged: bool = True


def refine_loop_bounds(
    implementation: DataTypeImplementation,
    test: SymbolicTest,
    model: MemoryModel,
    initial_bound: int = 1,
    max_rounds: int = 6,
    max_bound: int = 8,
    program: Program | None = None,
    use_range_analysis: bool = True,
    backend_factory: BackendFactory | None = None,
    simplify: bool | None = None,
) -> LoopBoundResult:
    """Find loop bounds sufficient for all executions of ``test``."""
    start = time.perf_counter()
    bounds: dict[str, int] = {}
    rounds = 0
    converged = False
    compiled = None
    while rounds < max_rounds:
        rounds += 1
        compiled = compile_test(
            implementation,
            test,
            loop_bounds=bounds,
            default_bound=initial_bound,
            overflow="flag",
            use_range_analysis=use_range_analysis,
            program=program,
        )
        encoded = encode_test(
            compiled, model, backend_factory=backend_factory, simplify=simplify,
        )
        if not encoded.overflow_handles:
            converged = True
            break
        some_overflow = encoded.ctx.circuit.or_many(
            encoded.overflow_handles.values()
        )
        if not encoded.solve(assumptions=[some_overflow]):
            converged = True
            break
        # Increase the bound of every loop whose flag is set in the model.
        model_values = encoded.model_values()
        grew = False
        for key, handle in encoded.overflow_handles.items():
            if encoded.ctx.lowering.evaluate(handle, model_values):
                tag = key.split(":", 1)[1]
                current = bounds.get(tag, initial_bound)
                if current < max_bound:
                    bounds[tag] = current + 1
                    grew = True
        if not grew:
            break
    assert compiled is not None
    return LoopBoundResult(
        compiled=compiled,
        bounds=dict(bounds),
        refinement_rounds=rounds,
        seconds=time.perf_counter() - start,
        converged=converged,
    )
