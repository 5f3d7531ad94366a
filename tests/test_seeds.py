import numpy as np
import pytest

from ringprune.errors import InputError, StructuralError
from ringprune.seeds import (
    MASK_STREAM,
    _SeedWords,
    generator_from_words,
    mask_stream_words,
)

from oracles import ParamStream

# Seeds and steps on both sides of each 32-bit word boundary: one-word,
# two-word and multi-word integers, below, at and beyond the pool size of 4
# words (2**128 is five words, so it is not zero-padded).
SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**200)
STEPS = (0, 2**32 - 1, 2**32, 2**40)


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mask_stream_words_match_seed_sequence(seed, step):
    n_nodes, n_layers = 64, 3
    words = mask_stream_words(seed, step, range(n_nodes), n_layers)
    assert words.shape == (n_nodes, n_layers, 4) and words.dtype == np.uint64
    for k in range(n_nodes):
        for j in range(n_layers):
            expected = np.random.SeedSequence(
                seed, spawn_key=(MASK_STREAM, k, step, j)
            ).generate_state(4, np.uint64)
            assert np.array_equal(words[k, j], expected), (k, j)
    # The generators built from the words draw what the reference streams
    # draw, doubles and integers alike.
    for k in (0, 1, n_nodes - 1):
        for j in range(n_layers):
            ours = generator_from_words(words[k, j])
            ref = ParamStream(seed, k, step).layer(j)
            assert ours.random(7).tobytes() == ref.random(7).tobytes()
            assert np.array_equal(ours.integers(0, 2**40, 5), ref.integers(0, 2**40, 5))


def test_mask_stream_words_follow_the_given_node_ids():
    nodes = [5, 0, 63, 5]
    words = mask_stream_words(9, 3, nodes, 2)
    full = mask_stream_words(9, 3, range(64), 2)
    assert np.array_equal(words, full[nodes])
    assert mask_stream_words(9, 3, [], 2).shape == (0, 2, 4)


def test_mask_stream_words_reject_what_seed_sequence_rejects():
    for seed, step in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed, spawn_key=(MASK_STREAM, 0, step, 0))
        with pytest.raises(InputError, match="expected non-negative integer"):
            mask_stream_words(seed, step, [0], 1)
    with pytest.raises(StructuralError):
        mask_stream_words(0, 0, [-1], 1)
    with pytest.raises(StructuralError):
        mask_stream_words(0, 0, [2**32], 1)


def test_generator_from_words_supplies_only_pcg64_seeding():
    words = mask_stream_words(1, 2, [0], 1)[0, 0]
    with pytest.raises(StructuralError):
        _SeedWords(words).generate_state(4, np.uint32)
    with pytest.raises(StructuralError):
        _SeedWords(words).generate_state(2, np.uint64)
