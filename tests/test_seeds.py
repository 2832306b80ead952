"""Tests for the deterministic seed derivation."""

import numpy as np
import pytest

from viability import seeds

# seeds of 1 to 6 uint32 words: the hash pads fewer than 4 words with zeros
# and folds words beyond the 4th into the pool one by one
SEEDS = [0, 12345, 20260821, 2**40 + 7, 2**64 - 1, 2**127 + 3, 2**128, 2**160 + 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_path_keys_match_seed_sequence(seed):
    indices = list(range(3000)) + [2**31, 2**32 - 1]
    keys = seeds.path_keys(seed, indices)
    ref = np.array(
        [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64) for i in indices]
    )
    assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
    assert keys.tobytes() == ref.tobytes()


def test_path_keys_of_no_indices():
    keys = seeds.path_keys(20260821, np.arange(0))
    assert keys.dtype == np.uint64 and keys.shape == (0, 2)


def test_path_keys_are_what_path_generator_hands_philox():
    gen = seeds.path_generator(7, 11)
    key = gen.bit_generator.state["state"]["key"]
    assert key.tobytes() == seeds.path_keys(7, [11])[0].tobytes()


@pytest.mark.parametrize("index", [2**32, 2**40, -1])
def test_path_keys_refuse_indices_outside_one_word(index):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        seeds.path_keys(5, [0, index])


def test_path_keys_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        seeds.path_keys(-1, [0])
