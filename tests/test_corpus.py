"""Seeding of the corpus instances."""

import numpy as np
import pytest

from circentropy.corpus import instance_rng

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)
KEYS = ((), (0,), (0, 0), (7, 3), (20, 2**32), (2**40 + 1, 0), (2**32 - 1, 2**64))


def _reference_rng(seed, *key):
    # numpy's own conversion of the entropy list into 32-bit words
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


@pytest.mark.parametrize("seed", SEEDS)
def test_instance_rng_draws_match_the_int_list_entropy(seed):
    for key in KEYS:
        got, want = instance_rng(seed, *key), _reference_rng(seed, *key)
        assert got.bit_generator.state == want.bit_generator.state, key
        assert got.random(8).tobytes() == want.random(8).tobytes(), key
        assert np.array_equal(got.integers(0, 2**63, 8), want.integers(0, 2**63, 8))


def test_instance_rng_takes_numpy_integers():
    want = _reference_rng(42, 5, 3).random(4)
    assert instance_rng(np.int64(42), np.uint32(5), np.int32(3)).random(4).tobytes() \
        == want.tobytes()


@pytest.mark.parametrize("values", [(-1,), (5, -1), (0, 3, -2**40)])
def test_instance_rng_rejects_negative_values(values):
    with pytest.raises(ValueError):
        instance_rng(*values)
