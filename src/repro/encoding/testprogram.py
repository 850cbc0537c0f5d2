"""Compiling a symbolic test against an implementation.

This is the first half of the back-end (Section 3.2): the operation calls of
the symbolic test are expanded into LSL harness code (argument choice,
shared-object addresses, out-parameter cells, observation of argument and
return values), the implementation procedures are inlined, and all loops are
unrolled.  The result — a :class:`CompiledTest` — is what the encoder turns
into the propositional formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.allocation import AllocationMap, build_layout, resolve_allocations
from repro.analysis.inline import Inliner
from repro.analysis.ranges import DisabledRanges, RangeAnalysis, RangeInfo
from repro.analysis.unroll import Unroller
from repro.datatypes.spec import DataTypeImplementation, OperationSpec
from repro.lang.lower import compile_c
from repro.lsl.builder import LslBuilder
from repro.lsl.instructions import Statement, count_memory_accesses, count_statements
from repro.lsl.layout import MemoryLayout
from repro.lsl.program import Invocation, Program, SymbolicTest


#: Thread index used for the initialization sequence.
INIT_THREAD = -1


@dataclass
class CompiledInvocation:
    """One operation invocation, fully inlined and unrolled."""

    thread: int
    position: int
    global_index: int
    label: str
    operation: OperationSpec
    statements: list[Statement]
    arg_regs: list[str]
    out_regs: list[str]
    ret_regs: list[str]
    overflow_registers: dict[str, str] = field(default_factory=dict)

    @property
    def observable_regs(self) -> list[str]:
        return self.arg_regs + self.ret_regs + self.out_regs

    @property
    def observable_labels(self) -> list[str]:
        labels = [f"{self.label}.arg{i}" for i in range(len(self.arg_regs))]
        labels += [f"{self.label}.ret" for _ in self.ret_regs]
        labels += [f"{self.label}.out{i}" for i in range(len(self.out_regs))]
        return labels


@dataclass
class CompiledTest:
    """A symbolic test compiled against an implementation."""

    implementation: DataTypeImplementation
    test: SymbolicTest
    program: Program
    invocations: list[CompiledInvocation]
    layout: MemoryLayout
    allocation: AllocationMap
    ranges: RangeInfo
    loop_bounds: dict[str, int]

    # The encoder memoizes its model-independent skeleton on this object
    # (see repro.encoding.formula.skeleton_for); the skeleton holds live
    # circuit/CNF state and must never travel across process boundaries.
    # The oracle's extracted traces (repro.oracle.trace.extract_traces)
    # are dropped too: a worker re-extracts them once.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_encoding_skeleton", None)
        state.pop("_oracle_traces", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------ structure

    def threads(self) -> dict[int, list[CompiledInvocation]]:
        """Invocations grouped by thread (including INIT_THREAD)."""
        grouped: dict[int, list[CompiledInvocation]] = {}
        for invocation in self.invocations:
            grouped.setdefault(invocation.thread, []).append(invocation)
        for members in grouped.values():
            members.sort(key=lambda inv: inv.position)
        return grouped

    def thread_bodies(self) -> list[list[Statement]]:
        """Flat statement lists per thread (init thread first)."""
        grouped = self.threads()
        ordered_threads = sorted(grouped)
        bodies = []
        for thread in ordered_threads:
            body: list[Statement] = []
            for invocation in grouped[thread]:
                body.extend(invocation.statements)
            bodies.append(body)
        return bodies

    def observation_labels(self) -> list[str]:
        labels: list[str] = []
        for invocation in self.invocations:
            labels.extend(invocation.observable_labels)
        return labels

    # ------------------------------------------------------------ statistics

    def size_statistics(self) -> dict[str, int]:
        # Memoized: every per-model encode reads these counts, and the
        # statement walk is pure.
        cached = getattr(self, "_size_statistics", None)
        if cached is not None:
            return cached
        instrs = loads = stores = 0
        for invocation in self.invocations:
            instrs += count_statements(invocation.statements)
            invocation_loads, invocation_stores = count_memory_accesses(
                invocation.statements
            )
            loads += invocation_loads
            stores += invocation_stores
        stats = {
            "instructions": instrs,
            "loads": loads,
            "stores": stores,
            "locations": self.layout.num_locations - 1,
            "invocations": len(self.invocations),
        }
        self._size_statistics = stats
        return stats


def compile_test(
    implementation: DataTypeImplementation,
    test: SymbolicTest,
    loop_bounds: dict[str, int] | None = None,
    default_bound: int | None = None,
    overflow: str = "assume",
    use_range_analysis: bool = True,
    program: Program | None = None,
) -> CompiledTest:
    """Compile ``test`` against ``implementation``.

    ``program`` may be supplied to reuse an already-lowered LSL program (the
    C front-end output is deterministic, so callers typically cache it).
    """
    if program is None:
        program = compile_c(implementation.source, implementation.name)
    if default_bound is None:
        default_bound = implementation.default_loop_bound
    inliner = Inliner(program)
    invocations: list[CompiledInvocation] = []
    global_index = 0
    all_bounds: dict[str, int] = {}

    ordered: list[tuple[int, int, Invocation]] = test.all_invocations()
    for thread, position, invocation in ordered:
        spec = implementation.operation(invocation.operation)
        compiled = _compile_invocation(
            inliner,
            program,
            spec,
            invocation,
            thread,
            position,
            global_index,
            loop_bounds or {},
            default_bound,
            overflow,
        )
        all_bounds.update(
            {tag: bound for tag, bound in compiled.overflow_bounds.items()}
        )
        invocations.append(compiled.invocation)
        global_index += 1

    layout = build_layout(program)
    bodies_by_thread = _bodies_in_thread_order(invocations)
    allocation = resolve_allocations(bodies_by_thread, layout)
    if use_range_analysis:
        ranges = RangeAnalysis(layout, allocation).analyze(bodies_by_thread)
    else:
        ranges = DisabledRanges(layout)
    return CompiledTest(
        implementation=implementation,
        test=test,
        program=program,
        invocations=invocations,
        layout=layout,
        allocation=allocation,
        ranges=ranges,
        loop_bounds=all_bounds,
    )


def _bodies_in_thread_order(
    invocations: list[CompiledInvocation],
) -> list[list[Statement]]:
    grouped: dict[int, list[CompiledInvocation]] = {}
    for invocation in invocations:
        grouped.setdefault(invocation.thread, []).append(invocation)
    bodies = []
    for thread in sorted(grouped):
        body: list[Statement] = []
        for invocation in sorted(grouped[thread], key=lambda inv: inv.position):
            body.extend(invocation.statements)
        bodies.append(body)
    return bodies


@dataclass
class _CompiledCall:
    invocation: CompiledInvocation
    overflow_bounds: dict[str, int]


def _compile_invocation(
    inliner: Inliner,
    program: Program,
    spec: OperationSpec,
    invocation: Invocation,
    thread: int,
    position: int,
    global_index: int,
    loop_bounds: dict[str, int],
    default_bound: int,
    overflow: str,
) -> _CompiledCall:
    thread_name = "init" if thread == INIT_THREAD else f"t{thread}"
    label = invocation.label or f"{thread_name}.{position}.{spec.name}"
    prefix = f"{thread_name}${position}$"
    builder = LslBuilder(prefix=prefix)

    # Shared objects are passed by address (their base location index).
    arg_registers: list[str] = []
    for global_name in spec.shared_globals:
        base = _global_base(program, global_name)
        arg_registers.append(builder.const(base))

    # Value arguments: fixed or chosen nondeterministically from the domain.
    value_arg_regs: list[str] = []
    for index in range(spec.num_value_args):
        provided = invocation.args[index] if index < len(invocation.args) else None
        if provided is None:
            reg = builder.choose(
                invocation.choice_domain, label=f"{label}.arg{index}",
                dst=f"{prefix}arg{index}",
            )
        else:
            reg = builder.const(provided, dst=f"{prefix}arg{index}")
        value_arg_regs.append(reg)
        arg_registers.append(reg)

    # Out-parameters: one fresh zero-initialized cell each.
    out_cells: list[str] = []
    for index in range(spec.num_out_params):
        cell = builder.alloc(
            1, type_name=f"{label}.out{index}", field_names=("cell",),
            init="zero", dst=f"{prefix}outp{index}",
        )
        out_cells.append(cell)
        arg_registers.append(cell)

    ret_regs: list[str] = []
    if spec.has_return:
        ret_regs = [f"{prefix}ret"]

    call_statements = inliner.inline_call(
        spec.proc, tuple(arg_registers), tuple(ret_regs), prefix=prefix
    )
    builder.statements.extend(call_statements)

    # Read back the out-parameters so they become observable registers.
    out_regs: list[str] = []
    for index, cell in enumerate(out_cells):
        out_regs.append(builder.load(cell, dst=f"{prefix}out{index}"))

    builder.observe(label, value_arg_regs + ret_regs + out_regs)

    unroller = Unroller(loop_bounds, default_bound, overflow)
    result = unroller.unroll(builder.statements)

    compiled = CompiledInvocation(
        thread=thread,
        position=position,
        global_index=global_index,
        label=label,
        operation=spec,
        statements=result.statements,
        arg_regs=value_arg_regs,
        out_regs=out_regs,
        ret_regs=ret_regs,
        overflow_registers=result.overflow_registers,
    )
    return _CompiledCall(invocation=compiled, overflow_bounds=result.bounds_used)


def _global_base(program: Program, name: str) -> int:
    """Base location index of a global, consistent with the front-end."""
    base = 1
    for decl in program.globals:
        if decl.name == name:
            return base
        base += max(1, len(decl.field_names))
    raise KeyError(f"program {program.name!r} has no global {name!r}")
