"""Build and load the package's compiled kernels on first use.

There are three C sources: the tree kernel ``_tree.c``
(:mod:`flowregion.forest`), the autocorrelation kernel ``_acf.c``
(:mod:`flowregion.dependence`) and the series-file parser ``_ingest.c``
(:mod:`flowregion.dataio`). Each is compiled with the C compiler Python was
built with (sysconfig ``CC``) and fixed flags, and cached under this
package's ``__pycache__``. The cached file is named by the sha256 of the
source, the compiler command, the flags and the compiler's ``--version``
output, so an edited source or another compiler is never served a stale
build. A build writes a temporary file and
renames it into place, so processes that build at once each load a complete
library. Nothing is built at import.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from .errors import KernelBuildError

SOURCE = Path(__file__).with_name("_tree.c")
ACF_SOURCE = Path(__file__).with_name("_acf.c")
INGEST_SOURCE = Path(__file__).with_name("_ingest.c")
CACHE = Path(__file__).with_name("__pycache__")

#: No -ffast-math or -march=native: the kernels must keep IEEE arithmetic
#: step for step, and -ffp-contract=off forbids fused multiply-adds.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _run(command: list[str]) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise KernelBuildError(f"cannot run the C compiler {command[0]!r}: {exc}") from exc
    if done.returncode != 0:
        raise KernelBuildError(f"{shlex.join(command)} exited {done.returncode}", done.stderr)
    return done


def build(source: Path = SOURCE, cache: Path = CACHE) -> Path:
    """Path of the shared library built from ``source``, compiling it into
    ``cache`` unless a build of the same source, compiler and flags is there."""
    compiler = _compiler()
    version = _run([*compiler, "--version"]).stdout
    key = repr((source.read_bytes(), compiler, FLAGS, version)).encode()
    target = cache / f"{source.stem}-{hashlib.sha256(key).hexdigest()[:24]}.so"
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"{target.name}.", suffix=".tmp")
        os.close(fd)
    except OSError as exc:
        raise KernelBuildError(f"cannot write the kernel cache {cache}: {exc}") from exc
    try:
        _run([*compiler, *FLAGS, "-o", tmp, str(source)])
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load(source: Path = SOURCE, cache: Path = CACHE) -> ctypes.CDLL:
    """The kernel library built from ``source``, built first if needed."""
    return ctypes.CDLL(str(build(source, cache)))
