"""Build and load the package's compiled kernels on first use.

Three C sources make one shared library: the tree kernel ``_tree.c``
(:mod:`flowregion.forest` and :mod:`flowregion.seeding`), the
autocorrelation kernel ``_acf.c`` (:mod:`flowregion.dependence`) and the
series-file parser ``_ingest.c`` (:mod:`flowregion.dataio`). They are
compiled together with the C compiler Python was built with (sysconfig
``CC``) and fixed flags, and cached under this package's ``__pycache__``.
The cached file is named by the sha256 of every source, the compiler
command, the flags and the compiler's ``--version`` output, so an edited
source or another compiler is never served a stale build. A build writes a
temporary file and renames it into place, so processes that build at once
each load a complete library. Every build, compiled or found cached, then
deletes every other library in the cache, so superseded builds do not pile
up. One race remains: when two different sources are built from one
checkout at once, each may delete the other's library before that process
has loaded it, and that load fails.
:func:`kernel` loads the library once per process, on first use; nothing is
built at import.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from .errors import KernelBuildError

SOURCES = tuple(Path(__file__).with_name(name) for name in ("_tree.c", "_acf.c", "_ingest.c"))
CACHE = Path(__file__).with_name("__pycache__")

#: No -ffast-math or -march=native: the kernels must keep IEEE arithmetic
#: step for step, and -ffp-contract=off forbids fused multiply-adds.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_ptr, _i64 = ctypes.c_void_p, ctypes.c_int64

#: (argtypes, restype) of every entry of the library
_ENTRIES = {
    "grow_forest": ([_ptr, _ptr, _ptr, _i64, _i64, _ptr, _ptr, _ptr, _i64, _i64, _i64, _i64,
                     _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64], _i64),
    "permutations": ([_ptr, _i64, _i64, _ptr], None),
    "descend_forest": ([_ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64, _i64, _ptr, _i64, _i64, _i64,
                        _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr], None),
    "seed_states": ([_ptr, _ptr, _i64, _ptr], None),
    "lag_sums": ([_ptr, _i64, _i64, _i64, _ptr], None),
    "durbin_levinson": ([_ptr, _i64, _ptr, _ptr, _ptr], _i64),
    "parse_series": ([ctypes.c_char_p, _i64, _ptr, _ptr, _ptr], _i64),
}


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


def build(sources: tuple[Path, ...] = SOURCES, cache: Path = CACHE) -> Path:
    """Path of the shared library built from ``sources``, compiling it into
    ``cache`` unless a build of the same sources, compiler and flags is there.
    Every other library in ``cache`` is deleted."""
    compiler = _compiler()
    version = _run([*compiler, "--version"]).stdout
    key = repr(([s.read_bytes() for s in sources], compiler, FLAGS, version)).encode()
    target = cache / f"kernels-{hashlib.sha256(key).hexdigest()[:24]}.so"
    if not target.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"{target.name}.", suffix=".tmp")
            os.close(fd)
        except OSError as exc:
            raise KernelBuildError(f"cannot write the kernel cache {cache}: {exc}") from exc
        try:
            _run([*compiler, *FLAGS, "-o", tmp, *map(str, sources)])
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    for stale in cache.glob("*.so"):
        if stale != target:
            try:
                stale.unlink()
            except OSError:
                pass
    return target


def load(sources: tuple[Path, ...] = SOURCES, cache: Path = CACHE) -> ctypes.CDLL:
    """The library built from ``sources``, built first if needed."""
    return ctypes.CDLL(str(build(sources, cache)))


@functools.lru_cache(maxsize=None)
def kernel() -> ctypes.CDLL:
    """The package's library with every entry typed, loaded once per process.

    Raises :class:`KernelBuildError` when it cannot be built."""
    lib = load()
    for name, (argtypes, restype) in _ENTRIES.items():
        entry = getattr(lib, name)
        entry.argtypes, entry.restype = argtypes, restype
    return lib
