"""Incremental external solving through the IPASIR C API.

IPASIR ("Reentrant Incremental Sat solver API", the standard interface of
the SAT competition incremental track) is the lingua franca of incremental
SAT solvers: cadical, picosat, cryptominisat, lingeling and friends all
ship a shared library exporting

* ``ipasir_init`` / ``ipasir_release`` — solver lifecycle,
* ``ipasir_add`` — push clause literals (0-terminated),
* ``ipasir_assume`` — add a one-shot assumption for the next solve,
* ``ipasir_solve`` — returns 10 (SAT), 20 (UNSAT) or 0 (interrupted),
* ``ipasir_val`` — model value of a literal after SAT,
* ``ipasir_failed`` — failed-assumption membership after UNSAT.

Where the paper's toolchain exported one monolithic CNF per query and
restarted zChaff from scratch, an IPASIR solver *persists* across the
hundreds of solve/block iterations the specification miner and the fence
inference loop issue, so learned clauses from one query prune the next.

Optional symbols are bound only when the library exports them:
``ipasir_set_terminate`` (deadline enforcement inside a solve) and three
extensions the in-tree native solver (:mod:`repro.sat.native`) provides
so the ctypes binding pays one call per batch instead of one per literal:

* ``ipasirx_add_clauses(S, const int32_t *lits, size_t n)`` — add a
  buffer of 0-terminated clauses, returns 0 once the formula is UNSAT;
* ``ipasirx_values(S, const int32_t *vars, size_t n, int8_t *out)`` —
  model values of ``n`` variables (1 true, 0 false);
* ``ipasirx_stats(S, int64_t *out, size_t n)`` — cumulative solver
  counters in :data:`EXTENSION_STATS` order.

Two backends are provided:

* :class:`IpasirBackend` — loads an IPASIR shared library via
  :mod:`ctypes` (``CHECKFENCE_IPASIR_LIB``, or auto-discovery of
  ``libcadical``/``libcryptominisat5``/``libpicosat``/``liblingeling``);
* :class:`IncrementalPipeBackend` — the same persistent-solver protocol
  over a line-based pipe to ``python -m repro.sat.dimacs_cli
  --incremental``, so the incremental subprocess path stays testable on
  machines with no system SAT library at all.

Both register under the ``ipasir`` backend spec (see
:func:`repro.sat.backend.make_backend_factory`): ``ipasir`` auto-discovers
a library and falls back to the internal solver, ``ipasir:cli`` forces the
pipe backend, and ``ipasir:<path>`` loads a specific shared library.
Discovery and loading are memoised per process (:func:`load_library`), so
making a backend costs one ``ipasir_init`` call.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import os
import subprocess
import sys
import threading
from array import array
from itertools import chain, repeat
from operator import add
from typing import Iterable, Sequence

from repro.core import limits
from repro.sat.cnf import CNF
from repro.sat.solver import SolverStats

IPASIR_SAT = 10
IPASIR_UNSAT = 20
IPASIR_INTERRUPTED = 0

#: C type of the optional ``ipasir_set_terminate`` callback: called
#: periodically by the solver; a non-zero return aborts the solve.
TERMINATE_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_void_p)

#: The counters ``ipasirx_stats`` reports, in order.
EXTENSION_STATS = (
    "decisions", "propagations", "conflicts", "restarts",
    "learned_clauses", "deleted_clauses", "max_decision_level",
)

#: Environment variable naming the shared library to load for ``ipasir``.
IPASIR_LIB_ENV = "CHECKFENCE_IPASIR_LIB"

#: Library base names probed (via ctypes.util.find_library and common
#: soname spellings) when no explicit path is configured.
_KNOWN_LIBRARIES: tuple[str, ...] = (
    "cadical",
    "cryptominisat5",
    "picosat",
    "lingeling",
)

#: The symbols every IPASIR implementation must export.
_REQUIRED_SYMBOLS = (
    "ipasir_init",
    "ipasir_release",
    "ipasir_add",
    "ipasir_assume",
    "ipasir_solve",
    "ipasir_val",
    "ipasir_failed",
)


class IpasirError(RuntimeError):
    """An IPASIR library could not be loaded or misbehaved."""


class IpasirLibrary:
    """A loaded IPASIR shared library with typed entry points."""

    def __init__(self, path: str) -> None:
        try:
            cdll = ctypes.CDLL(path)
        except OSError as exc:
            raise IpasirError(f"cannot load IPASIR library {path!r}: {exc}")
        missing = [
            symbol for symbol in _REQUIRED_SYMBOLS
            if not hasattr(cdll, symbol)
        ]
        if missing:
            raise IpasirError(
                f"{path!r} is not an IPASIR library "
                f"(missing symbols: {', '.join(missing)})"
            )
        self.path = path
        self._cdll = cdll
        cdll.ipasir_init.restype = ctypes.c_void_p
        cdll.ipasir_init.argtypes = []
        cdll.ipasir_release.restype = None
        cdll.ipasir_release.argtypes = [ctypes.c_void_p]
        cdll.ipasir_add.restype = None
        cdll.ipasir_add.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        cdll.ipasir_assume.restype = None
        cdll.ipasir_assume.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        cdll.ipasir_solve.restype = ctypes.c_int
        cdll.ipasir_solve.argtypes = [ctypes.c_void_p]
        cdll.ipasir_val.restype = ctypes.c_int32
        cdll.ipasir_val.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        cdll.ipasir_failed.restype = ctypes.c_int
        cdll.ipasir_failed.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        if hasattr(cdll, "ipasir_signature"):
            cdll.ipasir_signature.restype = ctypes.c_char_p
            cdll.ipasir_signature.argtypes = []
        self.supports_terminate = hasattr(cdll, "ipasir_set_terminate")
        if self.supports_terminate:
            cdll.ipasir_set_terminate.restype = None
            cdll.ipasir_set_terminate.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, TERMINATE_CALLBACK
            ]
        # Buffers are passed as raw addresses (array.buffer_info()).
        self.supports_bulk_add = hasattr(cdll, "ipasirx_add_clauses")
        if self.supports_bulk_add:
            cdll.ipasirx_add_clauses.restype = ctypes.c_int
            cdll.ipasirx_add_clauses.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t
            ]
        self.supports_values = hasattr(cdll, "ipasirx_values")
        if self.supports_values:
            cdll.ipasirx_values.restype = None
            cdll.ipasirx_values.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
                ctypes.c_void_p,
            ]
        self.supports_stats = hasattr(cdll, "ipasirx_stats")
        if self.supports_stats:
            cdll.ipasirx_stats.restype = ctypes.c_size_t
            cdll.ipasirx_stats.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t
            ]

    def signature(self) -> str:
        if hasattr(self._cdll, "ipasir_signature"):
            raw = self._cdll.ipasir_signature()
            if raw:
                return raw.decode("utf-8", "replace")
        return os.path.basename(self.path)

    def init(self) -> int:
        handle = self._cdll.ipasir_init()
        if not handle:
            raise IpasirError(f"ipasir_init() of {self.path!r} returned NULL")
        return handle

    def release(self, handle: int) -> None:
        self._cdll.ipasir_release(handle)

    def add(self, handle: int, literal: int) -> None:
        self._cdll.ipasir_add(handle, literal)

    def assume(self, handle: int, literal: int) -> None:
        self._cdll.ipasir_assume(handle, literal)

    def solve(self, handle: int) -> int:
        return self._cdll.ipasir_solve(handle)

    def val(self, handle: int, literal: int) -> int:
        return self._cdll.ipasir_val(handle, literal)

    def failed(self, handle: int, literal: int) -> bool:
        return bool(self._cdll.ipasir_failed(handle, literal))

    def set_terminate(self, handle: int, callback) -> None:
        """Install (or with ``callback=None`` clear) the terminate hook;
        no-op when the library does not export ``ipasir_set_terminate``."""
        if self.supports_terminate:
            self._cdll.ipasir_set_terminate(
                handle, None,
                callback if callback is not None else TERMINATE_CALLBACK(),
            )

    def add_clauses(self, handle: int, buffer: array) -> bool:
        """``ipasirx_add_clauses`` over an ``array('i')`` of 0-terminated
        clauses; False once the formula is unsatisfiable."""
        address, count = buffer.buffer_info()
        return bool(self._cdll.ipasirx_add_clauses(handle, address, count))

    def values(self, handle: int, variables: array) -> array:
        """``ipasirx_values`` over an ``array('i')`` of variables: one
        ``array('b')`` entry per variable, 1 when true."""
        out = array("b", bytes(len(variables)))
        address, count = variables.buffer_info()
        self._cdll.ipasirx_values(handle, address, count, out.buffer_info()[0])
        return out

    def stats(self, handle: int) -> SolverStats:
        counters = array("q", bytes(8 * len(EXTENSION_STATS)))
        address, count = counters.buffer_info()
        self._cdll.ipasirx_stats(handle, address, count)
        return SolverStats(**dict(zip(EXTENSION_STATS, counters)))


@functools.lru_cache(maxsize=None)
def load_library(path: str) -> IpasirLibrary:
    """The :class:`IpasirLibrary` for ``path``, loaded once per process
    (raises :class:`IpasirError` when it cannot be loaded)."""
    return IpasirLibrary(path)


def find_ipasir_library() -> str | None:
    """Locate an IPASIR shared library: ``CHECKFENCE_IPASIR_LIB`` first,
    then :func:`ctypes.util.find_library` and common soname spellings of
    the known solvers.  Returns a loadable path/soname or None.  The probe
    of the known solvers runs once per process."""
    configured = os.environ.get(IPASIR_LIB_ENV)
    if configured:
        return configured
    return _probe_known_libraries()


@functools.lru_cache(maxsize=None)
def _probe_known_libraries() -> str | None:
    candidates: list[str] = []
    for base in _KNOWN_LIBRARIES:
        found = ctypes.util.find_library(base)
        if found:
            candidates.append(found)
        candidates.append(f"lib{base}.so")
    for candidate in candidates:
        try:
            load_library(candidate)
        except IpasirError:
            continue
        return candidate
    return None


class IpasirBackend:
    """A persistent incremental solver behind the SolverBackend protocol.

    The underlying IPASIR solver object lives for the whole backend
    lifetime: clauses accumulate, assumptions are one-shot (exactly the
    protocol :class:`repro.encoding.formula.EncodedTest` expects), and the
    solver's learned clauses carry over between the solve/block iterations
    of the mining loops.
    """

    def __init__(self, library: IpasirLibrary | str | None = None) -> None:
        if library is None:
            found = find_ipasir_library()
            if found is None:
                raise IpasirError(
                    "no IPASIR shared library found (set "
                    f"{IPASIR_LIB_ENV} or install one of: "
                    + ", ".join(f"lib{b}.so" for b in _KNOWN_LIBRARIES)
                    + ")"
                )
            library = found
        if isinstance(library, str):
            library = load_library(library)
        self._library = library
        self._handle = library.init()
        self.name = f"ipasir({library.signature()})"
        self._num_vars = 0
        self._last_result: bool | None = None
        self._failed: list[int] = []
        self._terminate_thunk = None

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        handle = getattr(self, "_handle", None)
        if handle:
            try:
                self._library.release(handle)
            except Exception:
                pass
            self._handle = None

    # ----------------------------------------------------------- clause I/O

    def ensure_vars(self, num_vars: int) -> None:
        if num_vars > self._num_vars:
            self._num_vars = num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        return self.add_clauses((tuple(literals),))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add clauses; False once the formula is known unsatisfiable (an
        empty clause, or — for libraries with the bulk extension — any
        root-level contradiction)."""
        library = self._library
        if library.supports_bulk_add:
            clauses = list(clauses)
            buffer = array("i", chain.from_iterable(
                map(add, map(tuple, clauses), repeat((0,)))
            ))
            if buffer.count(0) != len(clauses):
                raise IpasirError("0 is not a valid literal")
            if buffer:
                self._num_vars = max(
                    self._num_vars, max(buffer), -min(buffer)
                )
            return library.add_clauses(self._handle, buffer)
        add_literal = library.add
        handle = self._handle
        num_vars = self._num_vars
        ok = True
        for clause in clauses:
            count = 0
            for lit in clause:
                if lit == 0:
                    raise IpasirError("0 is not a valid literal")
                var = lit if lit > 0 else -lit
                if var > num_vars:
                    num_vars = var
                add_literal(handle, lit)
                count += 1
            add_literal(handle, 0)
            ok = ok and count > 0
        self._num_vars = num_vars
        return ok

    def add_cnf(self, cnf: CNF) -> None:
        self.ensure_vars(cnf.num_vars)
        self.add_clauses(cnf.clauses)

    def freeze(self, variables: Iterable[int]) -> None:
        """No-op: IPASIR solvers manage frozen/melted state internally
        (assumption and value queries keep variables alive)."""

    # -------------------------------------------------------------- solving

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        # conflict_limit is a budget hint for the internal solver; IPASIR
        # solvers run to completion — unless a deadline is in scope, in
        # which case the optional ipasir_set_terminate hook aborts the
        # solve on expiry (libraries without the hook are still checked
        # between solves).
        self._failed = []
        self._last_result = None
        if assumptions:
            if 0 in assumptions:
                raise IpasirError("0 is not a valid assumption literal")
            # Assumed variables belong to the model (as in the internal
            # solver) even when no clause mentions them.
            self.ensure_vars(max(map(abs, assumptions)))
        library = self._library
        handle = self._handle
        deadline = limits.active_deadline()
        terminate_installed = False
        if deadline is not None:
            deadline.check()
            if library.supports_terminate:
                def _should_stop(_data: object) -> int:
                    return 1 if (
                        deadline.expired() or deadline.memory_exceeded()
                    ) else 0
                # Keep the ctypes thunk alive for the duration of the
                # solve; the solver calls it from C.
                self._terminate_thunk = TERMINATE_CALLBACK(_should_stop)
                library.set_terminate(handle, self._terminate_thunk)
                terminate_installed = True
        try:
            for lit in assumptions:
                library.assume(handle, lit)
            result = library.solve(handle)
        finally:
            if terminate_installed:
                library.set_terminate(handle, None)
                self._terminate_thunk = None
        if result == IPASIR_INTERRUPTED and deadline is not None:
            deadline.check()
        if result == IPASIR_SAT:
            self._last_result = True
            return True
        if result == IPASIR_UNSAT:
            self._last_result = False
            self._failed = [
                lit for lit in assumptions if library.failed(handle, lit)
            ]
            return False
        raise IpasirError(
            f"{self.name} returned unexpected solve status {result}"
        )

    def failed_assumptions(self) -> list[int]:
        """Subset of the last solve's assumptions already unsatisfiable
        together with the formula (``ipasir_failed``); empty when the
        formula alone is unsatisfiable or the last result was SAT (guarded
        by the recorded result, so an error path never leaks a core)."""
        if self._last_result is not False:
            return []
        return list(self._failed)

    def model(self) -> dict[int, bool]:
        return self.values_of(range(1, self._num_vars + 1))

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        if not self._last_result:
            return {}
        library = self._library
        handle = self._handle
        if library.supports_values:
            variables = list(variables)
            wanted = array("i", variables)
            return dict(zip(
                variables, map(bool, library.values(handle, wanted))
            ))
        num_vars = self._num_vars
        return {
            var: (library.val(handle, var) > 0) if 0 < var <= num_vars
            else False
            for var in variables
        }

    def stats(self) -> SolverStats | None:
        """The library's cumulative counters (``ipasirx_stats``); None
        (unavailable) for libraries with the plain IPASIR API."""
        if self._library.supports_stats:
            return self._library.stats(self._handle)
        return None


class IncrementalPipeBackend:
    """Persistent incremental solving over a line-based subprocess pipe.

    Speaks the ``--incremental`` protocol of :mod:`repro.sat.dimacs_cli`
    (``a``/``s`` command lines in, ``s``/``v``/``f`` result lines out) to a
    single long-lived solver process, so the subprocess path gets the same
    learned-clause persistence as a real IPASIR library — with no system
    solver installed.  Clause lines are buffered and flushed right before
    each solve to keep pipe round-trips off the add_clause hot path.
    """

    def __init__(self, command: Sequence[str] | None = None) -> None:
        if command is None:
            command = [sys.executable, "-m", "repro.sat.dimacs_cli",
                       "--incremental"]
        self._command = list(command)
        self.name = f"ipasir(cli:{os.path.basename(self._command[0])})"
        self._process: subprocess.Popen[str] | None = None
        self._pending: list[str] = []
        self._num_vars = 0
        self._unsat = False
        self._model: dict[int, bool] = {}
        self._failed: list[int] = []
        self._last_result: bool | None = None

    # ------------------------------------------------------------- process

    def _ensure_process(self) -> subprocess.Popen:
        if self._process is None or self._process.poll() is not None:
            if self._process is not None:
                raise IpasirError(
                    f"incremental solver process {self._command!r} exited "
                    f"with status {self._process.returncode}"
                )
            try:
                self._process = subprocess.Popen(
                    self._command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            except OSError as exc:
                raise IpasirError(
                    f"failed to start incremental solver "
                    f"{self._command!r}: {exc}"
                ) from exc
        return self._process

    def close(self) -> None:
        """Shut the solver process down (idempotent).

        Escalates: ask nicely (the ``q`` command), then SIGTERM, then
        SIGKILL — a solver stuck in a long propagation (or a misbehaving
        one that ignores SIGTERM) must never be leaked, only the final
        kill is unconditional.
        """
        process = self._process
        self._process = None
        if process is None or process.poll() is not None:
            return
        try:
            if process.stdin is not None:
                process.stdin.write("q\n")
                process.stdin.flush()
                process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=2)
            return
        except subprocess.TimeoutExpired:
            pass
        process.terminate()
        try:
            process.wait(timeout=2)
            return
        except subprocess.TimeoutExpired:
            pass
        process.kill()
        process.wait()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ----------------------------------------------------------- clause I/O

    def ensure_vars(self, num_vars: int) -> None:
        if num_vars > self._num_vars:
            self._num_vars = num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause = list(literals)
        for lit in clause:
            if lit == 0:
                raise IpasirError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > self._num_vars:
                self._num_vars = var
        self._pending.append(
            "a " + " ".join(str(lit) for lit in clause) + " 0\n"
        )
        if not clause:
            self._unsat = True
            return False
        return True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def add_cnf(self, cnf: CNF) -> None:
        self.ensure_vars(cnf.num_vars)
        self.add_clauses(cnf.clauses)

    def freeze(self, variables: Iterable[int]) -> None:
        """No-op: the pipe solver keeps every variable."""

    # -------------------------------------------------------------- solving

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        self._model = {}
        self._failed = []
        self._last_result = None
        process = self._ensure_process()
        assert process.stdin is not None and process.stdout is not None
        # A deadline in scope arms a watchdog that kills the solver
        # process on expiry; the resulting EOF on stdout is then reported
        # as TimeoutExceeded rather than a protocol error.
        deadline = limits.active_deadline()
        watchdog: threading.Timer | None = None
        if deadline is not None:
            deadline.check()
            remaining = deadline.remaining()
            if remaining is not None:
                watchdog = threading.Timer(remaining, process.kill)
                watchdog.daemon = True
                watchdog.start()
        try:
            return self._solve_over_pipe(process, assumptions, deadline)
        finally:
            if watchdog is not None:
                watchdog.cancel()

    def _solve_over_pipe(
        self,
        process: subprocess.Popen,
        assumptions: Sequence[int],
        deadline,
    ) -> bool | None:
        def _gone(exc: Exception | None = None) -> Exception:
            if deadline is not None and (
                deadline.expired() or deadline.memory_exceeded()
            ):
                process.wait()  # the watchdog killed it; reap
                deadline.check()
            error = IpasirError(
                f"incremental solver process {self._command!r} went away"
                + (f": {exc}" if exc is not None else " mid-query")
            )
            if exc is not None:
                error.__cause__ = exc
            return error

        try:
            if self._pending:
                process.stdin.writelines(self._pending)
                self._pending.clear()
            process.stdin.write(
                "s " + " ".join(str(lit) for lit in assumptions) + " 0\n"
            )
            process.stdin.flush()
        except OSError as exc:
            raise _gone(exc)
        status: bool | None = None
        literals: list[int] = []
        while True:
            line = process.stdout.readline()
            if not line:
                raise _gone()
            line = line.strip()
            if line.startswith("s "):
                verdict = line[2:].strip().upper()
                if verdict == "SATISFIABLE":
                    status = True
                elif verdict == "UNSATISFIABLE":
                    status = False
                else:
                    raise IpasirError(f"unexpected status line {line!r}")
            elif line.startswith("v "):
                chunk = [int(token) for token in line[2:].split()]
                if chunk and chunk[-1] == 0:
                    literals.extend(chunk[:-1])
                    break
                literals.extend(chunk)
            elif line.startswith("f "):
                chunk = [int(token) for token in line[2:].split()]
                if chunk and chunk[-1] == 0:
                    chunk.pop()
                self._failed = chunk
                break
            # other lines (comments) are ignored
        if status is None:
            raise IpasirError(
                f"incremental solver process {self._command!r} "
                "produced no verdict"
            )
        if status:
            model = {var: False for var in range(1, self._num_vars + 1)}
            for lit in literals:
                model[abs(lit)] = lit > 0
            self._model = model
        self._last_result = status
        return status

    def failed_assumptions(self) -> list[int]:
        """Failed-assumption core reported by the subprocess (``f`` line);
        empty unless the most recent solve returned UNSAT (guarded by the
        recorded result, so an error path never leaks a core)."""
        if self._last_result is not False:
            return []
        return list(self._failed)

    def model(self) -> dict[int, bool]:
        return dict(self._model)

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        model = self._model
        return {var: model.get(var, False) for var in variables}

    def stats(self) -> SolverStats | None:
        """The pipe protocol does not carry counters; None (unavailable)."""
        return None
