"""Deterministic substream derivation.

Every stochastic step in the package draws from a generator derived from a
master seed plus a tuple of labels (counters, names). Results are therefore
independent of scheduling and worker count: a tree, fold or permutation gets
the same stream no matter where it runs.

A stream is numpy's ``default_rng(SeedSequence(words))``, the words being the
seed and the labels. :func:`substreams` and :func:`child_seeds` give the
generators and seeds for many labels at once: one call to ``seed_states`` in
the compiled ``_tree.c`` (:func:`flowregion.native.kernel`) hashes every
label's words as ``SeedSequence`` does, and each generator's PCG64 is seeded
from those words. :func:`substream` and :func:`child_seed` are the same for
one label.

The forest builds no generator: :mod:`flowregion.forest` hands the PCG64
states of ``_stream_states`` to the tree kernel, which draws from them as
numpy's ``Generator`` does. That function builds the words of the streams
indexed by integers, ``("tree", t)`` and ``("perm", t, j)``, as arrays, so a
forest's trees, or every fold's trees of a cross-validation pair, take one
call whatever their number. numpy Generators are still built by
:func:`substream` for ``regional.kfold_split`` and for each catchment of
:mod:`flowregion.synthetic`, and by the test suite's reference grower.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import native

_MASK = (1 << 63) - 1
_LOW = (1 << 32) - 1
#: the PCG64 state is four uint64 words
_STATE_WORDS = 4


def _as_word(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & _MASK


def substream(seed, *parts) -> np.random.Generator:
    """Generator for the substream labelled by ``parts`` under ``seed``."""
    return next(substreams(seed, [parts]))


def child_seed(seed, *parts) -> int:
    """A plain integer seed derived from ``seed`` and ``parts``.

    Used when an API boundary takes a seed rather than a generator.
    """
    return child_seeds(seed, [parts])[0]


def _uint32_words(word: int) -> tuple[int, ...]:
    """The uint32 words numpy makes of a word below 2**63: little-endian,
    while the value is nonzero, and one zero word for 0."""
    return (word,) if word <= _LOW else (word & _LOW, word >> 32)


def _states(seed, labels) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` per label, the
    words being the seed's and the label's, one row each, from one kernel
    call."""
    head = _uint32_words(_as_word(seed))
    words, offsets = [], [0]
    for label in labels:
        words.extend(head)
        for part in label:
            words.extend(_uint32_words(_as_word(part)))
        offsets.append(len(words))
    return _seed_states(np.array(words, dtype=np.uint32), np.array(offsets, dtype=np.int64))


def _stream_states(*parts) -> np.ndarray:
    """``_states`` of labels that differ only in integer parts, their words
    built by numpy rather than label by label: row i is the state of the
    words of entry i of each part, the seed first. A part is a str or an int,
    the same in every row, or an integer array with one entry per row."""
    m = max((p.size for p in parts if isinstance(p, np.ndarray)), default=1)
    values = np.empty((m, len(parts)), dtype=np.uint64)
    for k, part in enumerate(parts):
        values[:, k] = part if isinstance(part, np.ndarray) else _as_word(part)
    values &= _MASK
    halves = np.empty((m, len(parts), 2), dtype=np.uint32)  # low, high word
    halves[:, :, 0] = values
    halves[:, :, 1] = values >> 32
    keep = halves != 0  # every low word, and a high word that is not zero
    keep[:, :, 0] = True
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=(1, 2)), out=offsets[1:])
    return _seed_states(halves[keep], offsets)


def _seed_states(words: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The PCG64 state of the uint32 words of each row i,
    ``words[offsets[i]:offsets[i + 1]]``, from one kernel call."""
    out = np.empty((offsets.size - 1, _STATE_WORDS), dtype=np.uint64)
    native.kernel().seed_states(words.ctypes.data, offsets.ctypes.data, len(out), out.ctypes.data)
    return out


class _Precomputed:
    """A seed sequence whose PCG64 state was computed already; a numpy
    ``ISeedSequence`` once :func:`substreams` has run."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (_STATE_WORDS, np.uint64):
            raise ValueError("holds only the four uint64 words that seed a PCG64")
        return self.state


def _generator(state: np.ndarray) -> np.random.Generator:
    """numpy's default generator on a PCG64 seeded from the four words ``state``."""
    # registered here, not at import: importing numpy.random costs ~10 ms
    np.random.bit_generator.ISeedSequence.register(_Precomputed)
    return np.random.Generator(np.random.PCG64(_Precomputed(state)))


def substreams(seed, labels):
    """``substream(seed, *label)`` for each label, in order, as an iterator.

    Every label's state is computed by this call; each generator is built as
    the iterator reaches it, so only the states are held up front.
    """
    return map(_generator, _states(seed, labels))


def child_seeds(seed, labels) -> list[int]:
    """``child_seed(seed, *label)`` for each label, in order."""
    return [word & _MASK for word in _states(seed, labels)[:, 0].tolist()]
