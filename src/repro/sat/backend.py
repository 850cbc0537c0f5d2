"""Pluggable SAT solver backends.

The checker never talks to :class:`repro.sat.solver.Solver` directly any
more; it goes through the :class:`SolverBackend` protocol, which captures
the small solving surface the pipeline needs (grow variables, add clauses,
solve under assumptions, read the model and statistics).  Two
implementations are provided:

* :class:`InternalBackend` — wraps the in-tree incremental CDCL solver;
* :class:`DimacsBackend` — shells out to an external DIMACS solver found on
  PATH (kissat, cadical, minisat, ...), re-exporting the clause database per
  call; when no external solver is installed it falls back to the internal
  solver (the fallback is visible in :attr:`DimacsBackend.name`).

Backend choice is a string *spec* threaded through
:class:`repro.core.checker.CheckOptions`, the CLI (``--solver``) and the
``CHECKFENCE_SOLVER`` environment variable:

* ``auto`` — the native C solver lane (:mod:`repro.sat.native`, compiled
  on first use), or the internal solver when no C compiler is available
  or the build fails (the default);
* ``internal`` — always the pure-Python CDCL solver;
* ``dimacs`` — the first external DIMACS solver found on PATH, internal
  fallback when none is installed;
* ``dimacs:<command>`` — a specific solver command, e.g.
  ``dimacs:kissat -q`` or
  ``dimacs:python -m repro.sat.dimacs_cli`` (the in-tree solver behind a
  subprocess/DIMACS pipe, useful for differential testing);
* ``ipasir`` — a persistent incremental external solver loaded as an
  IPASIR shared library (:mod:`repro.sat.ipasir`), auto-discovered via
  ``CHECKFENCE_IPASIR_LIB`` / known sonames, internal fallback when none
  is installed;
* ``ipasir:cli`` — the in-tree solver behind a persistent incremental
  subprocess pipe (``python -m repro.sat.dimacs_cli --incremental``);
* ``ipasir:<path>`` — a specific IPASIR shared library file.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import tempfile
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.core import faults, limits
from repro.sat.cnf import CNF
from repro.sat.solver import Solver, SolverStats

BackendFactory = Callable[[], "SolverBackend"]

SAT_EXIT_CODE = 10
UNSAT_EXIT_CODE = 20


class BackendError(RuntimeError):
    """An external solver failed or produced unparseable output."""


@runtime_checkable
class SolverBackend(Protocol):
    """The solving surface the checking pipeline relies on."""

    name: str

    def ensure_vars(self, num_vars: int) -> None: ...

    def add_clause(self, literals: Iterable[int]) -> bool: ...

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool: ...

    def add_cnf(self, cnf: CNF) -> None: ...

    def freeze(self, variables: Iterable[int]) -> None: ...

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None: ...

    def failed_assumptions(self) -> list[int]:
        """Subset of the last solve's assumptions already unsatisfiable
        together with the formula.  Uniform contract across backends:
        non-empty only when the most recent :meth:`solve` returned
        ``False`` — after a SAT or UNKNOWN result, or before any solve,
        this is ``[]`` (core-guided searches rely on that to distinguish
        "no core" from a stale one)."""
        ...

    def model(self) -> dict[int, bool]: ...

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]: ...

    def stats(self) -> SolverStats | None: ...


class InternalBackend:
    """The in-tree incremental CDCL solver behind the backend protocol."""

    name = "internal"

    def __init__(self, solver: Solver | None = None) -> None:
        self.solver = solver if solver is not None else Solver()

    def ensure_vars(self, num_vars: int) -> None:
        self.solver.ensure_vars(num_vars)

    def add_clause(self, literals: Iterable[int]) -> bool:
        return self.solver.add_clause(literals)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-add pre-normalized clauses (no duplicate literals or
        tautologies), e.g. straight from a :class:`CNF` database."""
        return self.solver.add_clauses_trusted(clauses)

    def add_cnf(self, cnf: CNF) -> None:
        self.solver.add_cnf(cnf)

    def freeze(self, variables: Iterable[int]) -> None:
        """No-op: the plain solver never removes variables.  Preprocessing
        backends (:class:`repro.sat.simplify.SimplifyingBackend`) use the
        frozen set to protect variables the caller will mention again."""

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        return self.solver.solve(
            assumptions=assumptions, conflict_limit=conflict_limit
        )

    def failed_assumptions(self) -> list[int]:
        """Subset of the last solve's assumptions that is already
        unsatisfiable together with the formula; empty when the formula
        alone is unsatisfiable or the last result was SAT."""
        return self.solver.failed_assumptions()

    def model(self) -> dict[int, bool]:
        return self.solver.model()

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        return self.solver.values_of(variables)

    def stats(self) -> SolverStats:
        return self.solver.total_stats


#: External solvers probed on PATH, in order of preference, with their
#: output style: "stdout" solvers print ``s``/``v`` lines, "minisat" style
#: solvers write the result into an output file given as a second argument.
_KNOWN_SOLVERS: tuple[tuple[str, str], ...] = (
    ("kissat", "stdout"),
    ("cadical", "stdout"),
    ("cryptominisat5", "stdout"),
    ("picosat", "stdout"),
    ("minisat", "minisat"),
)


def find_dimacs_solver() -> tuple[list[str], str] | None:
    """Locate an external DIMACS solver on PATH; ``(command, style)``."""
    for name, style in _KNOWN_SOLVERS:
        path = shutil.which(name)
        if path is not None:
            return [path], style
    return None


class DimacsBackend:
    """Solve by exporting DIMACS to an external solver process.

    The external process is stateless, so every :meth:`solve` re-exports the
    clause database (assumptions become temporary unit clauses).  When no
    command is given and nothing suitable is on PATH, the backend degrades
    to :class:`InternalBackend` so callers never have to special-case
    missing solvers; the degradation is visible in :attr:`name`.
    """

    def __init__(
        self,
        command: Sequence[str] | None = None,
        style: str | None = None,
        fallback: bool = True,
    ) -> None:
        self._fallback: InternalBackend | None = None
        if command is None:
            found = find_dimacs_solver()
            if found is None:
                if not fallback:
                    raise BackendError(
                        "no external DIMACS solver found on PATH "
                        f"(tried {', '.join(n for n, _ in _KNOWN_SOLVERS)})"
                    )
                self._fallback = InternalBackend()
                self.name = "dimacs(fallback:internal)"
                return
            command, detected_style = found
            style = style or detected_style
        self._command = list(command)
        self._style = style or "stdout"
        self.name = f"dimacs({os.path.basename(self._command[0])})"
        self._num_vars = 0
        self._clauses: list[tuple[int, ...]] = []
        self._unsat = False
        self._model: dict[int, bool] = {}
        self._failed: list[int] = []
        self._last_result: bool | None = None

    # ----------------------------------------------------------- clause I/O

    def ensure_vars(self, num_vars: int) -> None:
        if self._fallback is not None:
            self._fallback.ensure_vars(num_vars)
            return
        self._num_vars = max(self._num_vars, num_vars)

    def add_clause(self, literals: Iterable[int]) -> bool:
        if self._fallback is not None:
            return self._fallback.add_clause(literals)
        clause = tuple(literals)
        for lit in clause:
            if lit == 0:
                raise BackendError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, abs(lit))
        if not clause:
            self._unsat = True
            return False
        self._clauses.append(clause)
        return True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        if self._fallback is not None:
            return self._fallback.add_clauses(clauses)
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def add_cnf(self, cnf: CNF) -> None:
        self.ensure_vars(cnf.num_vars)
        self.add_clauses(cnf.clauses)

    def freeze(self, variables: Iterable[int]) -> None:
        """No-op: the DIMACS export keeps every variable (see
        :meth:`InternalBackend.freeze`)."""
        if self._fallback is not None:
            self._fallback.freeze(variables)

    # -------------------------------------------------------------- solving

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        if self._fallback is not None:
            return self._fallback.solve(
                assumptions=assumptions, conflict_limit=conflict_limit
            )
        # conflict_limit is a budget hint for the internal solver; external
        # solvers run to completion — unless a deadline is in scope, in
        # which case the subprocess gets the remaining wall-clock as its
        # timeout and is killed on expiry.
        self._model = {}
        self._failed = []
        self._last_result = None
        if self._unsat:
            self._last_result = False
            return False
        deadline = limits.active_deadline()
        remaining = None
        if deadline is not None:
            deadline.check()
            remaining = deadline.remaining()
        with tempfile.TemporaryDirectory(prefix="checkfence-dimacs-") as tmp:
            problem = os.path.join(tmp, "problem.cnf")
            self._write_problem(problem, assumptions)
            command = self._command + [problem]
            result_file = None
            if self._style == "minisat":
                result_file = os.path.join(tmp, "result.txt")
                command.append(result_file)
            try:
                proc = subprocess.run(
                    command, capture_output=True, text=True, check=False,
                    timeout=remaining,
                )
            except subprocess.TimeoutExpired as exc:
                # subprocess.run has already killed the solver process.
                raise limits.TimeoutExceeded(
                    f"external solver {self._command[0]!r} killed after "
                    f"{exc.timeout:.1f}s (deadline expired)"
                ) from exc
            except FileNotFoundError as exc:
                raise BackendError(
                    f"solver binary {self._command[0]!r} not found "
                    f"(searched PATH: {os.environ.get('PATH', '')!r}); "
                    "install it, use --solver dimacs:<command> with a "
                    "command that exists, or fall back to --solver internal"
                ) from exc
            except OSError as exc:
                raise BackendError(
                    f"failed to run {self._command[0]!r}: {exc}"
                ) from exc
            output = proc.stdout
            from_result_file = False
            if result_file is not None and os.path.exists(result_file):
                with open(result_file, "r", encoding="utf-8") as handle:
                    output = handle.read()
                from_result_file = True
            result = self._parse_result(
                proc.returncode, output, proc.stderr, from_result_file
            )
            if result is False:
                # The DIMACS interchange carries no failed-assumption
                # information, so the whole assumption set is the
                # (conservative but sound) core.
                self._failed = list(assumptions)
            self._last_result = result
            return result

    def _write_problem(self, path: str, assumptions: Sequence[int]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                f"p cnf {self._num_vars} "
                f"{len(self._clauses) + len(assumptions)}\n"
            )
            for clause in self._clauses:
                handle.write(" ".join(str(lit) for lit in clause) + " 0\n")
            for lit in assumptions:
                handle.write(f"{lit} 0\n")

    def _parse_result(
        self,
        returncode: int,
        output: str,
        stderr: str,
        from_result_file: bool = False,
    ) -> bool:
        status: bool | None = None
        literals: list[int] = []
        for line in output.splitlines():
            line = line.strip()
            if line.startswith("s "):
                verdict = line[2:].strip().upper()
                if verdict == "SATISFIABLE":
                    status = True
                elif verdict == "UNSATISFIABLE":
                    status = False
            elif line == "SAT":  # minisat result-file format
                status = True
            elif line == "UNSAT":
                status = False
            elif line.startswith("v "):
                literals.extend(int(tok) for tok in line[2:].split())
            elif (
                from_result_file
                and status is True
                and line
                and line[0] in "-0123456789"
            ):
                # Only minisat result files put the model on a bare line;
                # stdout solvers may print digit-leading stats lines that
                # must not be mistaken for a model.
                literals.extend(int(tok) for tok in line.split())
        if status is None:
            if returncode == SAT_EXIT_CODE:
                status = True
            elif returncode == UNSAT_EXIT_CODE:
                status = False
            else:
                raise BackendError(
                    f"solver {self._command[0]!r} produced no verdict "
                    f"(exit code {returncode}): {stderr.strip() or output.strip()!r}"
                )
        if status:
            model = {var: False for var in range(1, self._num_vars + 1)}
            for lit in literals:
                if lit != 0:
                    model[abs(lit)] = lit > 0
            self._model = model
        return status

    def failed_assumptions(self) -> list[int]:
        """Conservative core: the DIMACS interchange format carries no
        failed-assumption information, so after an UNSAT solve this is the
        full assumption set of that solve (a sound over-approximation).
        The internal fallback reports its real (smaller) core.  Empty
        unless the most recent solve actually returned UNSAT — guarded by
        the recorded result, not just the reset-on-solve, so a solver-error
        path can never leak a stale core."""
        if self._fallback is not None:
            return self._fallback.failed_assumptions()
        if self._last_result is not False:
            return []
        return list(self._failed)

    def model(self) -> dict[int, bool]:
        if self._fallback is not None:
            return self._fallback.model()
        return dict(self._model)

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        if self._fallback is not None:
            return self._fallback.values_of(variables)
        model = self._model
        return {var: model.get(var, False) for var in variables}

    def stats(self) -> SolverStats | None:
        """External solvers do not report counters in a common format, so
        this is None (counters unavailable) unless the internal fallback is
        active, which reports its real numbers."""
        if self._fallback is not None:
            return self._fallback.stats()
        return None


# ----------------------------------------------------------- spec resolution


def default_backend_spec() -> str:
    """The backend spec used when none is given (``CHECKFENCE_SOLVER``)."""
    return os.environ.get("CHECKFENCE_SOLVER", "auto")


def make_backend_factory(spec: str | None = None) -> BackendFactory:
    """Turn a backend spec string into a factory of fresh backends.

    When the ``solver-raise`` fault (:mod:`repro.core.faults`) is armed,
    every produced backend is wrapped in a counting proxy that raises on
    the injected solve calls; the hot path pays nothing otherwise.
    """
    factory = _resolve_backend_factory(spec)
    if faults.solver_raise_counts():
        def faulty() -> SolverBackend:
            return faults.FaultySolverProxy(factory())
        faulty.native = is_native(factory)
        return faulty
    return factory


def is_native(factory: BackendFactory | None) -> bool:
    """Whether ``factory`` makes backends of the native C solver lane."""
    return getattr(factory, "native", False)


def _native_factory() -> BackendFactory | None:
    """A factory of native-lane backends (:mod:`repro.sat.native`, built on
    first use); None when the solver cannot be built on this machine."""
    # Imported lazily: the native lane pulls in ctypes and the cache
    # directory, which the other specs never need.
    from repro.sat import native
    from repro.sat.ipasir import IpasirBackend

    library = native.load_library()
    if library is None:
        return None

    def factory() -> SolverBackend:
        backend = IpasirBackend(library)
        backend.name = "native"
        return backend

    factory.native = True
    return factory


def _resolve_backend_factory(spec: str | None = None) -> BackendFactory:
    spec = spec if spec is not None else default_backend_spec()
    spec = spec.strip()
    if spec in ("", "auto"):
        return _native_factory() or InternalBackend
    if spec == "internal":
        return InternalBackend
    if spec == "dimacs":
        return DimacsBackend
    if spec.startswith("dimacs:"):
        command = shlex.split(spec[len("dimacs:"):])
        if not command:
            raise ValueError(f"empty solver command in spec {spec!r}")
        return lambda: DimacsBackend(command=command)
    if spec == "ipasir" or spec.startswith("ipasir:"):
        # Imported lazily: repro.sat.ipasir imports from this module's
        # sibling (solver stats) and is only needed for these specs.
        from repro.sat import ipasir as ipasir_module

        if spec == "ipasir":
            def factory() -> SolverBackend:
                library = ipasir_module.find_ipasir_library()
                if library is None:
                    backend = InternalBackend()
                    backend.name = "ipasir(fallback:internal)"
                    return backend
                return ipasir_module.IpasirBackend(library)
            return factory
        argument = spec[len("ipasir:"):].strip()
        if not argument:
            raise ValueError(f"empty IPASIR library path in spec {spec!r}")
        if argument == "cli":
            return ipasir_module.IncrementalPipeBackend
        return lambda: ipasir_module.IpasirBackend(argument)
    raise ValueError(
        f"unknown solver backend spec {spec!r} "
        "(expected auto, internal, dimacs, dimacs:<command>, "
        "ipasir, ipasir:cli, or ipasir:<path>)"
    )
