"""Building and caching the compiled kernels, and shipping their sources."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from flowregion import native
from flowregion.errors import KernelBuildError

SRC = Path(native.__file__).resolve().parents[1]


def _source_copy(tmp_path) -> Path:
    source = tmp_path / "src" / "_tree.c"
    source.parent.mkdir()
    source.write_bytes(native.SOURCE.read_bytes())
    return source


def test_edited_source_never_served_the_old_build(tmp_path):
    source, cache = _source_copy(tmp_path), tmp_path / "cache"
    first = native.build(source, cache)
    assert native.build(source, cache) == first
    text = source.read_bytes()
    source.write_bytes(text.replace(b"#define INSERTION_MAX 32", b"#define INSERTION_MAX 31", 1))
    assert source.read_bytes() != text
    second = native.build(source, cache)
    assert second != first and second.is_file()
    assert sorted(cache.iterdir()) == sorted([first, second])
    assert native.load(source, cache).descend_forest is not None


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
lib = native.load(Path(sys.argv[2]), Path(sys.argv[3]))
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
    source, cache = _source_copy(tmp_path), tmp_path / "cache"
    cc = tmp_path / "slow-cc"
    cc.write_text(_SLOW_CC.format(cc=" ".join(native._compiler())))
    cc.chmod(0o755)
    script = tmp_path / "load.py"
    script.write_text(textwrap.dedent(_LOAD_AND_DESCEND))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, str(script), str(cc), str(source), str(cache)]
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
        native.build(_source_copy(tmp_path), tmp_path / "cache")


def test_compile_error_carries_compiler_stderr(tmp_path):
    source = _source_copy(tmp_path)
    source.write_text("this is not C\n")
    with pytest.raises(KernelBuildError) as info:
        native.build(source, tmp_path / "cache")
    assert "error" in info.value.stderr
    assert list((tmp_path / "cache").iterdir()) == []


def test_every_c_source_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    listed = pyproject["tool"]["setuptools"]["package-data"]["flowregion"]
    sources = sorted(p.name for p in native.SOURCE.parent.glob("*.c"))
    assert {native.SOURCE.name, native.ACF_SOURCE.name} <= set(sources)
    assert sorted(listed) == sources
