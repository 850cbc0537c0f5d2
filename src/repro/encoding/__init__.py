"""SAT encoding of concurrent executions (the back-end of Section 3.2)."""

from repro.encoding.testprogram import (
    INIT_THREAD,
    CompiledInvocation,
    CompiledTest,
    compile_test,
)
from repro.encoding.symbolic import (
    EncodingError,
    FenceEvent,
    MemoryAccess,
    ThreadEncoding,
    ThreadSymbolicExecutor,
)
from repro.encoding.memory import MemoryModelEncoder, MemoryOrderEncoding
from repro.encoding.formula import (
    EncodedTest,
    EncodingContext,
    EncodingSkeleton,
    EncodingStatistics,
    ObservationSlot,
    build_skeleton,
    encode_test,
    skeleton_for,
)

__all__ = [
    "INIT_THREAD",
    "CompiledInvocation",
    "CompiledTest",
    "compile_test",
    "EncodingError",
    "FenceEvent",
    "MemoryAccess",
    "ThreadEncoding",
    "ThreadSymbolicExecutor",
    "MemoryModelEncoder",
    "MemoryOrderEncoding",
    "EncodedTest",
    "EncodingContext",
    "EncodingSkeleton",
    "EncodingStatistics",
    "ObservationSlot",
    "build_skeleton",
    "encode_test",
    "skeleton_for",
]
