"""Building and caching the compiled kernels, and shipping their sources."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from flowregion import native
from flowregion.engine import extract_features
from flowregion.errors import KernelBuildError
from flowregion.forest import DesignMatrix, ForestParams, fit

from conftest import daily_series, sine

SRC = Path(native.__file__).resolve().parents[1]


def _source_copies(tmp_path) -> tuple[Path, ...]:
    folder = tmp_path / "src"
    folder.mkdir()
    for source in native.SOURCES:
        (folder / source.name).write_bytes(source.read_bytes())
    return tuple(folder / source.name for source in native.SOURCES)


@pytest.mark.parametrize("edited", [source.name for source in native.SOURCES])
def test_edited_source_never_served_the_old_build(tmp_path, edited):
    sources, cache = _source_copies(tmp_path), tmp_path / "cache"
    first = native.build(sources, cache)
    assert native.build(sources, cache) == first
    source = sources[0].with_name(edited)
    source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
    (cache / "_tree-0123456789abcdef.so").write_bytes(b"an older layout's build")
    second = native.build(sources, cache)
    assert second != first and second.is_file()
    assert list(cache.iterdir()) == [second]  # superseded builds are deleted
    assert native.load(sources, cache).descend_forest is not None


def test_cached_build_prunes_stale_libraries(tmp_path):
    sources, cache = _source_copies(tmp_path), tmp_path / "cache"
    target = native.build(sources, cache)
    (cache / "_tree-0123.so").write_bytes(b"an older layout's build")
    assert native.build(sources, cache) == target
    assert list(cache.iterdir()) == [target]


# A compiler wrapper that first writes a partial output, then compiles slowly:
# a loader that compiled straight into the cache's final name would let the
# second process load the partial file.
_SLOW_CC = """#!/bin/sh
prev=""
for arg in "$@"; do
    [ "$prev" = "-o" ] && printf 'partial' > "$arg"
    prev="$arg"
done
[ "$1" = "--version" ] || sleep 1
exec {cc} "$@"
"""

_LOAD_AND_DESCEND = """
import ctypes, sys
from pathlib import Path
import numpy as np
from flowregion import native
native._compiler = lambda: [sys.argv[1]]
lib = native.load(tuple(map(Path, sys.argv[3:])), Path(sys.argv[2]))
ptr, i64 = ctypes.c_void_p, ctypes.c_int64
lib.descend_forest.argtypes = [ptr] * 6 + [i64, i64, ptr, i64, i64, i64] + [ptr] * 7
feature = np.array([0, -1, -1], dtype=np.int32)
threshold = np.array([0.5, np.nan, np.nan])
left = np.array([1, -1, -1], dtype=np.int32)
right = np.array([2, -1, -1], dtype=np.int32)
value = np.array([np.nan, -1.0, 1.0])
node_start = np.array([0, 3], dtype=np.int64)
X = np.array([[0.0], [1.0], [0.5]])
out = np.zeros(3)
lib.descend_forest(feature.ctypes.data, threshold.ctypes.data, left.ctypes.data,
                   right.ctypes.data, value.ctypes.data, node_start.ctypes.data, 0, 1,
                   X.ctypes.data, 3, 1, 0, None, None, None, None, None, out.ctypes.data,
                   None)
print(out.tolist())
"""


def test_concurrent_builds_into_an_empty_cache_both_load(tmp_path):
    sources, cache = _source_copies(tmp_path), tmp_path / "cache"
    cc = tmp_path / "slow-cc"
    cc.write_text(_SLOW_CC.format(cc=" ".join(native._compiler())))
    cc.chmod(0o755)
    script = tmp_path / "load.py"
    script.write_text(textwrap.dedent(_LOAD_AND_DESCEND))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, str(script), str(cc), str(cache), *map(str, sources)]
    first = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # start the second build while the first compiler is still writing
    for _ in range(200):
        if cache.is_dir() and any(cache.iterdir()):
            break
        try:
            first.wait(timeout=0.05)
            break
        except subprocess.TimeoutExpired:
            pass
    second = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for proc in (first, second):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert out.decode().strip() == "[-1.0, 1.0, -1.0]"
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def test_missing_compiler_raises_named_error(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    with pytest.raises(KernelBuildError):
        native.build(_source_copies(tmp_path), tmp_path / "cache")


def test_compile_error_carries_compiler_stderr(tmp_path):
    sources = _source_copies(tmp_path)
    sources[1].write_text("this is not C\n")
    with pytest.raises(KernelBuildError) as info:
        native.build(sources, tmp_path / "cache")
    assert "error" in info.value.stderr
    assert list((tmp_path / "cache").iterdir()) == []


def test_every_c_source_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    listed = pyproject["tool"]["setuptools"]["package-data"]["flowregion"]
    sources = sorted(p.name for p in SRC.joinpath("flowregion").glob("*.c"))
    assert sorted(s.name for s in native.SOURCES) == sources
    assert sorted(listed) == sources


def test_compiler_version_read_once_per_process(monkeypatch):
    """An extraction and a fit load the one library once, so the compiler's
    ``--version`` runs once."""
    commands = []
    run = native._run

    def recording(command):
        commands.append(command)
        return run(command)

    native.kernel.cache_clear()
    monkeypatch.setattr(native, "_run", recording)
    try:
        extract_features(daily_series(sine(1095, noise_sd=0.3)))
        X = np.random.default_rng(1).normal(size=(40, 3))
        fit(DesignMatrix(["a", "b", "c"], X, X[:, 0]), ForestParams(n_trees=3), seed=1)
    finally:
        native.kernel.cache_clear()
    assert [command[-1] for command in commands].count("--version") == 1
