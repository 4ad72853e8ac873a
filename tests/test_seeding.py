"""Batched substreams and child seeds against numpy's SeedSequence, per label."""

import zlib

import numpy as np
import pytest

from flowregion.seeding import _stream_states, child_seed, child_seeds, substream, substreams


def _word(part) -> int:
    return zlib.crc32(part.encode("utf-8")) if isinstance(part, str) else int(part) & (2**63 - 1)


def reference_sequence(seed, *label) -> np.random.SeedSequence:
    """numpy's own SeedSequence of the seed's and the label's words."""
    return np.random.SeedSequence([_word(seed)] + [_word(p) for p in label])


def reference_state(seed, *label) -> dict:
    return np.random.default_rng(reference_sequence(seed, *label)).bit_generator.state


def reference_seed(seed, *label) -> int:
    word = reference_sequence(seed, *label).generate_state(1, dtype=np.uint64)[0]
    return int(word) & (2**63 - 1)

# words below 2**32 take one uint32 word, larger ones two; 2**64 + 5 is
# masked to 63 bits first, and 0 is one zero word
EDGE_VALUES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5)

LABELS = (
    [(v,) for v in EDGE_VALUES]
    + [("tree", v) for v in EDGE_VALUES]
    + [("perm", 3, v) for v in EDGE_VALUES]
    + [("cv", "entropy", "STP", 9), ("", "seasonal_strength"), ()]
    # six or more words: the pool holds four, the rest are mixed in after
    + [(2**40, 2**50, "a", 7, 2**62, 0, 2**33), tuple(range(1, 9)),
       ("x",) * 12 + (2**64 + 5,)]
)


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 5, "master"])
def test_substreams_equal_substream_per_label(seed):
    batched = list(substreams(seed, LABELS))
    assert len(batched) == len(LABELS)
    for label, rng in zip(LABELS, batched):
        want = reference_state(seed, *label)
        assert rng.bit_generator.state == want, label
        assert substream(seed, *label).bit_generator.state == want, label


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 5, "master"])
def test_child_seeds_equal_child_seed_per_label(seed):
    want = [reference_seed(seed, *label) for label in LABELS]
    assert child_seeds(seed, LABELS) == want
    assert [child_seed(seed, *label) for label in LABELS] == want


def test_random_labels_match():
    rng = np.random.default_rng(3)
    labels = [tuple(int(w) for w in rng.integers(0, 2**63, size=rng.integers(0, 9))
                    >> rng.integers(0, 63))
              for _ in range(500)]
    batched = substreams(11, labels)
    for label, stream in zip(labels, batched):
        assert stream.bit_generator.state == reference_state(11, *label)
    assert child_seeds(11, labels) == [reference_seed(11, *label) for label in labels]


def test_draws_follow_the_stream():
    (rng,) = substreams(5, [("tree", 2)])
    want = np.random.default_rng(reference_sequence(5, "tree", 2)).permutation(40)
    np.testing.assert_array_equal(rng.permutation(40), want)
    np.testing.assert_array_equal(substream(5, "tree", 2).permutation(40), want)


def test_no_labels():
    assert list(substreams(1, [])) == []
    assert child_seeds(1, []) == []


#: one uint32 word up to 2**32 - 1, two from 2**32 up to 2**63 - 1
STREAM_EDGES = (0, 2**32 - 1, 2**32, 2**63 - 1)


def seed_sequence_states(rows) -> np.ndarray:
    """numpy's own state words of each row of (seed, *label)."""
    return np.array([reference_sequence(*row).generate_state(4, np.uint64) for row in rows])


@pytest.mark.parametrize("seed", [*STREAM_EDGES, "master"])
def test_stream_states_equal_seed_sequence(seed):
    index = np.array(STREAM_EDGES, dtype=np.uint64)
    edges = [int(v) for v in index]
    cases = [
        ((seed, "tree", index), [(seed, "tree", v) for v in edges]),
        ((seed, "perm", 2**32, index), [(seed, "perm", 2**32, v) for v in edges]),
        ((seed, "perm", index, index[::-1]),
         [(seed, "perm", a, b) for a, b in zip(edges, edges[::-1])]),
        ((seed, "tree", 2**32 - 1), [(seed, "tree", 2**32 - 1)]),
        ((seed, "cv", "entropy", 3), [(seed, "cv", "entropy", 3)]),
    ]
    for parts, rows in cases:
        got = _stream_states(*parts)
        assert got.tobytes() == seed_sequence_states(rows).tobytes(), parts


def test_stream_states_take_a_seed_per_row():
    # every fold's trees of a cross-validation pair in one call
    seeds = np.repeat(np.array(STREAM_EDGES, dtype=np.uint64), 3)
    trees = np.tile(np.arange(3), len(STREAM_EDGES))
    want = seed_sequence_states([(int(s), "tree", int(t)) for s, t in zip(seeds, trees)])
    assert _stream_states(seeds, "tree", trees).tobytes() == want.tobytes()


def test_stream_states_mask_as_labels_do():
    # a negative index is masked to 63 bits, as an int label part is
    index = np.array([-1, -(2**40), 5], dtype=np.int64)
    want = seed_sequence_states([(7, "perm", 1, int(j)) for j in index])
    assert _stream_states(7, "perm", 1, index).tobytes() == want.tobytes()
    assert _stream_states(7, "perm", 1, index[:0]).shape == (0, 4)
