"""Batched substreams and child seeds against numpy's SeedSequence, per label."""

import numpy as np
import pytest

from flowregion.seeding import child_seed, child_seeds, substream, substreams

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
        assert rng.bit_generator.state == substream(seed, *label).bit_generator.state, label


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 5, "master"])
def test_child_seeds_equal_child_seed_per_label(seed):
    assert child_seeds(seed, LABELS) == [child_seed(seed, *label) for label in LABELS]


def test_random_labels_match():
    rng = np.random.default_rng(3)
    labels = [tuple(int(w) for w in rng.integers(0, 2**63, size=rng.integers(0, 9))
                    >> rng.integers(0, 63))
              for _ in range(500)]
    batched = substreams(11, labels)
    for label, stream in zip(labels, batched):
        assert stream.bit_generator.state == substream(11, *label).bit_generator.state
    assert child_seeds(11, labels) == [child_seed(11, *label) for label in labels]


def test_draws_follow_the_stream():
    (rng,) = substreams(5, [("tree", 2)])
    np.testing.assert_array_equal(rng.permutation(40), substream(5, "tree", 2).permutation(40))


def test_no_labels():
    assert list(substreams(1, [])) == []
    assert child_seeds(1, []) == []
