"""The native solving lane: the in-tree C solver behind the IPASIR binding.

``cdcl.c`` next to this file is a small CDCL solver exporting the IPASIR
ABI plus the bulk extensions :mod:`repro.sat.ipasir` binds when present.
It is compiled on first use with the system C compiler (``cc -O2 -shared
-fPIC``) into ``<cache dir>/native/libcdcl-<hash>.so``
(:func:`repro.core.store.cache_dir`), where ``<hash>`` covers the source
and the flags: an edited source builds a new library, an unchanged one is
reused by every later process.  The compiler writes to a temporary file
that is then renamed into place, so concurrent processes (matrix workers)
never load a half-written library.

Nothing is hashed or compiled at import time.  :func:`load_library` does
the work on its first call and memoises the outcome for the process: the
loaded library, or None when no compiler exists or the build fails (logged
once).  The ``auto`` backend spec resolves to this lane and falls back to
the pure-Python solver on None (:func:`repro.sat.backend.make_backend_factory`).
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from repro.core.store import cache_dir
from repro.sat.ipasir import IpasirError, IpasirLibrary
from repro.sat.ipasir import load_library as load_ipasir_library

#: The solver source compiled by :func:`build`.
SOURCE = Path(__file__).with_name("cdcl.c")

COMPILE_FLAGS = ("-O2", "-shared", "-fPIC")

_log = logging.getLogger(__name__)

_UNRESOLVED = object()
_library: object = _UNRESOLVED


class NativeBuildError(RuntimeError):
    """The native solver could not be compiled."""


def library_path() -> Path:
    """Where the library for the current source and flags is cached."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(COMPILE_FLAGS).encode("utf-8"))
    return cache_dir() / "native" / f"libcdcl-{digest.hexdigest()[:16]}.so"


def build() -> str:
    """Compile the solver unless its cached library exists; its path."""
    path = library_path()
    if path.exists():
        return str(path)
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise NativeBuildError("no C compiler (cc or gcc) on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    os.close(handle)
    try:
        result = subprocess.run(
            [compiler, *COMPILE_FLAGS, "-o", temporary, str(SOURCE)],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise NativeBuildError(
                f"{compiler} exited with {result.returncode}: "
                f"{result.stderr.strip()}"
            )
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return str(path)


def load_library() -> IpasirLibrary | None:
    """The native solver library, built and loaded once per process; None
    (and one logged warning) when it cannot be built or loaded."""
    global _library
    if _library is _UNRESOLVED:
        try:
            _library = load_ipasir_library(build())
        except (NativeBuildError, IpasirError, OSError) as exc:
            _log.warning(
                "native SAT solver unavailable, solving in pure Python: %s",
                exc,
            )
            _library = None
    return _library
